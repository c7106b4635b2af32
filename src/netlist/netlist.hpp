#pragma once
// Gate-level netlist: a DAG of primitive-function instances connected by
// nets. The technology mapper later binds every instance to a library cell
// (and may insert buffers or decompose instances); the same data structure
// carries both the technology-independent subject graph and the mapped
// design.
//
// Conventions kept deliberately simple, matching the paper's setup:
//  - one ideal clock domain: sequential instances do not route a clock net;
//  - async set/reset of flip-flop variants are ideal (not routed);
//  - every net has exactly one driver (a primary input or instance output).

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "liberty/cell.hpp"
#include "liberty/function.hpp"

namespace sct::netlist {

/// Technology-independent primitive operations.
enum class PrimOp : std::uint8_t {
  kConst0,  ///< constant driver (maps to a tie-low cell)
  kConst1,  ///< constant driver (maps to a tie-high cell)
  kInv,
  kBuf,
  kNand2,
  kNand2B,  ///< NAND2 with the B input inverted (Z = !(A & !B))
  kNand3,
  kNand4,
  kNor2,
  kNor2B,  ///< NOR2 with the B input inverted (Z = !(A | !B))
  kNor3,
  kNor4,
  kAnd2,
  kAnd3,
  kAnd4,
  kOr2,
  kOr3,
  kOr4,
  kXor2,
  kXnor2,
  kMux2,       ///< inputs D0, D1, S
  kMux4,       ///< inputs D0..D3, S0, S1
  kHalfAdder,  ///< outputs S, CO
  kFullAdder,  ///< inputs A, B, CI; outputs S, CO
  kDff,        ///< input D; output Q
  kDffR,       ///< input D; output Q; ideal async reset
  kDffE,       ///< inputs D, E; output Q
};

[[nodiscard]] std::string_view toString(PrimOp op) noexcept;

// Inline: these predicates sit in every hot loop of levelization, timing
// propagation and netlist sweeps.
[[nodiscard]] inline constexpr std::size_t numInputs(PrimOp op) noexcept {
  switch (op) {
    case PrimOp::kConst0:
    case PrimOp::kConst1:
      return 0;
    case PrimOp::kInv:
    case PrimOp::kBuf:
    case PrimOp::kDff:
    case PrimOp::kDffR:
      return 1;
    case PrimOp::kNand2:
    case PrimOp::kNand2B:
    case PrimOp::kNor2:
    case PrimOp::kNor2B:
    case PrimOp::kAnd2:
    case PrimOp::kOr2:
    case PrimOp::kXor2:
    case PrimOp::kXnor2:
    case PrimOp::kHalfAdder:
    case PrimOp::kDffE:
      return 2;
    case PrimOp::kNand3:
    case PrimOp::kNor3:
    case PrimOp::kAnd3:
    case PrimOp::kOr3:
    case PrimOp::kMux2:
    case PrimOp::kFullAdder:
      return 3;
    case PrimOp::kNand4:
    case PrimOp::kNor4:
    case PrimOp::kAnd4:
    case PrimOp::kOr4:
      return 4;
    case PrimOp::kMux4:
      return 6;
  }
  return 0;
}
[[nodiscard]] inline constexpr std::size_t numOutputs(PrimOp op) noexcept {
  switch (op) {
    case PrimOp::kHalfAdder:
    case PrimOp::kFullAdder:
      return 2;
    default:
      return 1;
  }
}
[[nodiscard]] inline constexpr bool isSequential(PrimOp op) noexcept {
  return op == PrimOp::kDff || op == PrimOp::kDffR || op == PrimOp::kDffE;
}
/// Natural library function family of the primitive.
[[nodiscard]] liberty::CellFunction defaultFunction(PrimOp op) noexcept;

using NetIndex = std::uint32_t;
using InstIndex = std::uint32_t;
inline constexpr NetIndex kNoNet = std::numeric_limits<NetIndex>::max();
inline constexpr InstIndex kNoInst = std::numeric_limits<InstIndex>::max();

/// Reference to one input slot of an instance.
struct SinkRef {
  InstIndex instance = kNoInst;
  std::uint32_t inputSlot = 0;
  friend bool operator==(const SinkRef&, const SinkRef&) = default;
};

struct Net {
  std::string name;
  /// Driving instance, or kNoInst when driven by a primary input.
  InstIndex driver = kNoInst;
  std::uint32_t driverSlot = 0;  ///< output slot of the driver
  std::vector<SinkRef> sinks;    ///< instance input loads
  bool isPrimaryOutput = false;
};

struct Instance {
  std::string name;
  PrimOp op = PrimOp::kInv;
  /// Bound library cell; nullptr while technology independent.
  const liberty::Cell* cell = nullptr;
  std::vector<NetIndex> inputs;   ///< primitive input order
  std::vector<NetIndex> outputs;  ///< primitive output order
  bool alive = true;
};

enum class PortDirection { kInput, kOutput };

struct Port {
  std::string name;
  PortDirection direction = PortDirection::kInput;
  NetIndex net = kNoNet;
};

class Design {
 public:
  Design() = default;
  explicit Design(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // --- construction ------------------------------------------------------
  NetIndex addNet(std::string name);
  /// Adds an instance and wires its connectivity. inputs/outputs sizes must
  /// match the primitive shape.
  InstIndex addInstance(std::string name, PrimOp op,
                        std::vector<NetIndex> inputs,
                        std::vector<NetIndex> outputs);
  void addPort(std::string name, PortDirection direction, NetIndex net);

  // --- verbatim restore (deserializers) -----------------------------------
  /// Appends a fully-specified instance WITHOUT wiring net connectivity.
  /// Only for deserializers that restore nets_ (including sink order, which
  /// steers timing tie-breaking) verbatim themselves; the result should be
  /// checked with validate().
  InstIndex addInstanceRaw(Instance instance) {
    instances_.push_back(std::move(instance));
    return static_cast<InstIndex>(instances_.size() - 1);
  }
  /// Fresh-name counter, exposed so a restored design continues unique
  /// net/instance numbering exactly where the original stopped.
  [[nodiscard]] std::uint64_t nameCounter() const noexcept {
    return name_counter_;
  }
  void setNameCounter(std::uint64_t counter) noexcept {
    name_counter_ = counter;
  }

  // --- surgery (used by buffering / decomposition / sizing) --------------
  /// Reconnects one input slot to a different net, updating sink lists.
  void reconnectInput(InstIndex instance, std::uint32_t slot, NetIndex net);
  /// Moves sinks of `from` onto other nets in one pass over its sink list:
  /// the k-th sink moves to `to[k]` (kNoNet keeps it on `from`), and sinks
  /// past `to.size()` stay. Every sink list ends as reconnectInput on each
  /// moved sink, in ascending k, leaves it.
  void redistributeSinks(NetIndex from, std::span<const NetIndex> to);
  /// Marks an instance dead and detaches it from all nets. Its output nets
  /// lose their driver; the caller must rewire or abandon them.
  void removeInstance(InstIndex instance);
  void bindCell(InstIndex instance, const liberty::Cell* cell) {
    instances_[instance].cell = cell;
  }

  // --- access -------------------------------------------------------------
  [[nodiscard]] std::size_t netCount() const noexcept { return nets_.size(); }
  [[nodiscard]] std::size_t instanceCount() const noexcept {
    return instances_.size();
  }
  /// Number of alive instances (the design's gate count).
  [[nodiscard]] std::size_t gateCount() const noexcept;

  [[nodiscard]] Net& net(NetIndex i) noexcept { return nets_[i]; }
  [[nodiscard]] const Net& net(NetIndex i) const noexcept { return nets_[i]; }
  [[nodiscard]] Instance& instance(InstIndex i) noexcept {
    return instances_[i];
  }
  [[nodiscard]] const Instance& instance(InstIndex i) const noexcept {
    return instances_[i];
  }
  [[nodiscard]] const std::vector<Port>& ports() const noexcept {
    return ports_;
  }
  [[nodiscard]] const std::vector<Net>& nets() const noexcept { return nets_; }
  [[nodiscard]] const std::vector<Instance>& instances() const noexcept {
    return instances_;
  }

  /// Total area of the mapped design (sum of bound cell areas).
  [[nodiscard]] double totalArea() const noexcept;

  /// Per-cell-name usage histogram of the mapped design (Fig. 9 data).
  [[nodiscard]] std::map<std::string, std::size_t> cellUsage() const;

  /// Consistency check (driver/sink symmetry, slot counts); returns an empty
  /// string when healthy, else a description of the first problem found.
  [[nodiscard]] std::string validate() const;

  /// Fresh unique net/instance name with the given stem.
  [[nodiscard]] std::string freshName(const std::string& stem);

 private:
  std::string name_;
  std::vector<Net> nets_;
  std::vector<Instance> instances_;
  std::vector<Port> ports_;
  std::uint64_t name_counter_ = 0;
};

}  // namespace sct::netlist
