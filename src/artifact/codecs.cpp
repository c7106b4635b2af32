#include "artifact/codecs.hpp"

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "artifact/fields.hpp"

namespace sct::artifact {
namespace {

// ------------------------------------------------- shared grid plumbing --
// Encoders append every axis/grid into one vector<double>; the block is
// written as a single aligned f64span. Decoders slice the span back in the
// same traversal order.

void appendLut(std::vector<double>& grids, const liberty::Lut& lut) {
  grids.insert(grids.end(), lut.slewAxis().begin(), lut.slewAxis().end());
  grids.insert(grids.end(), lut.loadAxis().begin(), lut.loadAxis().end());
  const std::span<const double> flat = lut.values().flat();
  grids.insert(grids.end(), flat.begin(), flat.end());
}

/// Sequential slicer over the artifact's f64 block.
class GridCursor {
 public:
  explicit GridCursor(std::span<const double> data) : data_(data) {}

  std::span<const double> take(std::size_t n) {
    if (data_.size() - pos_ < n) throw FormatError("grid block exhausted");
    const std::span<const double> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  numeric::Axis axis(std::size_t n) {
    const auto s = take(n);
    return numeric::Axis(s.begin(), s.end());
  }

  numeric::Grid2d grid(std::size_t rows, std::size_t cols) {
    const auto s = take(rows * cols);
    numeric::Grid2d grid(rows, cols);
    std::memcpy(grid.flat().data(), s.data(), s.size() * sizeof(double));
    return grid;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const double> data_;
  std::size_t pos_ = 0;
};

void putLutShape(SctbWriter& writer, const liberty::Lut& lut) {
  writer.u32(static_cast<std::uint32_t>(lut.rows()));
  writer.u32(static_cast<std::uint32_t>(lut.cols()));
}

liberty::Lut takeLut(SctbReader::Cursor& cursor, GridCursor& grids) {
  const std::uint32_t rows = cursor.u32();
  const std::uint32_t cols = cursor.u32();
  numeric::Axis slew = grids.axis(rows);
  numeric::Axis load = grids.axis(cols);
  numeric::Grid2d values = grids.grid(rows, cols);
  return liberty::Lut(std::move(slew), std::move(load), std::move(values));
}

liberty::CellFunction takeFunction(SctbReader::Cursor& cursor) {
  const std::uint32_t raw = cursor.u32();
  if (raw >= liberty::kNumCellFunctions) {
    throw FormatError("cell function out of range");
  }
  return static_cast<liberty::CellFunction>(raw);
}

}  // namespace

// --------------------------------------------------------------- library --

void encodeLibrary(SctbWriter& writer, const liberty::Library& library) {
  std::vector<double> grids;

  writer.beginSection("lib.meta");
  writer.str(library.name());
  writer.str(library.conditions().processName);
  writer.f64(library.conditions().voltage);
  writer.f64(library.conditions().temperature);

  writer.beginSection("lib.cells");
  const std::vector<const liberty::Cell*> cells = library.cells();
  writer.u64(cells.size());
  for (const liberty::Cell* cell : cells) {
    writer.str(cell->name());
    writer.u32(static_cast<std::uint32_t>(cell->function()));
    writer.f64(cell->driveStrength());
    writer.f64(cell->area());
    writer.f64(cell->setupTime());
    writer.f64(cell->holdTime());
    writer.boolean(!cell->setupLut().empty());
    if (!cell->setupLut().empty()) {
      putLutShape(writer, cell->setupLut());
      appendLut(grids, cell->setupLut());
    }
    writer.u64(cell->pins().size());
    for (const liberty::Pin& pin : cell->pins()) {
      writer.str(pin.name);
      writer.u8(pin.direction == liberty::PinDirection::kOutput ? 1 : 0);
      writer.f64(pin.capacitance);
      writer.f64(pin.maxCapacitance);
      writer.boolean(pin.isClock);
    }
    writer.u64(cell->arcs().size());
    for (const liberty::TimingArc& arc : cell->arcs()) {
      writer.str(arc.relatedPin);
      writer.str(arc.outputPin);
      for (const liberty::Lut* lut :
           {&arc.riseDelay, &arc.fallDelay, &arc.riseTransition,
            &arc.fallTransition}) {
        putLutShape(writer, *lut);
        appendLut(grids, *lut);
      }
    }
  }

  writer.beginSection("lib.grids");
  writer.f64span(grids);
}

liberty::Library decodeLibrary(const SctbReader& reader) {
  SctbReader::Cursor meta = reader.section("lib.meta");
  const std::string name = meta.str();
  liberty::OperatingConditions conditions;
  conditions.processName = meta.str();
  conditions.voltage = meta.f64();
  conditions.temperature = meta.f64();
  liberty::Library library(name, std::move(conditions));

  SctbReader::Cursor cursor = reader.section("lib.cells");
  GridCursor grids(reader.section("lib.grids").f64span());
  const std::uint64_t cellCount = cursor.u64();
  for (std::uint64_t i = 0; i < cellCount; ++i) {
    const std::string cellName = cursor.str();
    const liberty::CellFunction function = takeFunction(cursor);
    const double strength = cursor.f64();
    const double area = cursor.f64();
    liberty::Cell cell(cellName, function, strength, area);
    cell.setSetupTime(cursor.f64());
    cell.setHoldTime(cursor.f64());
    if (cursor.boolean()) cell.setSetupLut(takeLut(cursor, grids));
    const std::uint64_t pinCount = cursor.u64();
    for (std::uint64_t p = 0; p < pinCount; ++p) {
      liberty::Pin pin;
      pin.name = cursor.str();
      pin.direction = cursor.u8() != 0 ? liberty::PinDirection::kOutput
                                       : liberty::PinDirection::kInput;
      pin.capacitance = cursor.f64();
      pin.maxCapacitance = cursor.f64();
      pin.isClock = cursor.boolean();
      cell.addPin(std::move(pin));
    }
    const std::uint64_t arcCount = cursor.u64();
    for (std::uint64_t a = 0; a < arcCount; ++a) {
      liberty::TimingArc arc;
      arc.relatedPin = cursor.str();
      arc.outputPin = cursor.str();
      arc.riseDelay = takeLut(cursor, grids);
      arc.fallDelay = takeLut(cursor, grids);
      arc.riseTransition = takeLut(cursor, grids);
      arc.fallTransition = takeLut(cursor, grids);
      cell.addArc(std::move(arc));
    }
    library.addCell(std::move(cell));
  }
  if (!grids.exhausted()) throw FormatError("trailing grid data");
  return library;
}

// ---------------------------------------------------------- stat library --

namespace {

void appendStatLut(std::vector<double>& grids, const statlib::StatLut& lut) {
  grids.insert(grids.end(), lut.slewAxis().begin(), lut.slewAxis().end());
  grids.insert(grids.end(), lut.loadAxis().begin(), lut.loadAxis().end());
  const std::span<const double> mean = lut.mean().flat();
  grids.insert(grids.end(), mean.begin(), mean.end());
  const std::span<const double> sigma = lut.sigma().flat();
  grids.insert(grids.end(), sigma.begin(), sigma.end());
}

statlib::StatLut takeStatLut(SctbReader::Cursor& cursor, GridCursor& grids) {
  const std::uint32_t rows = cursor.u32();
  const std::uint32_t cols = cursor.u32();
  // Sequenced statements: argument evaluation order would be unspecified.
  numeric::Axis slew = grids.axis(rows);
  numeric::Axis load = grids.axis(cols);
  statlib::StatLut lut(std::move(slew), std::move(load));
  lut.mean() = grids.grid(rows, cols);
  lut.sigma() = grids.grid(rows, cols);
  return lut;
}

}  // namespace

void encodeStatLibrary(SctbWriter& writer,
                       const statlib::StatLibrary& library) {
  std::vector<double> grids;

  writer.beginSection("stat.meta");
  writer.str(library.name());
  writer.u64(library.sampleCount());

  writer.beginSection("stat.cells");
  const std::vector<const statlib::StatCell*> cells = library.cells();
  writer.u64(cells.size());
  for (const statlib::StatCell* cell : cells) {
    writer.str(cell->name());
    writer.u32(static_cast<std::uint32_t>(cell->function()));
    writer.f64(cell->driveStrength());
    writer.f64(cell->area());
    writer.u64(cell->arcs().size());
    for (const statlib::StatArc& arc : cell->arcs()) {
      writer.str(arc.relatedPin);
      writer.str(arc.outputPin);
      for (const statlib::StatLut* lut : {&arc.rise, &arc.fall}) {
        writer.u32(static_cast<std::uint32_t>(lut->rows()));
        writer.u32(static_cast<std::uint32_t>(lut->cols()));
        appendStatLut(grids, *lut);
      }
    }
  }

  writer.beginSection("stat.grids");
  writer.f64span(grids);
}

statlib::StatLibrary decodeStatLibrary(const SctbReader& reader) {
  SctbReader::Cursor meta = reader.section("stat.meta");
  statlib::StatLibrary library(meta.str());
  library.setSampleCount(meta.u64());

  SctbReader::Cursor cursor = reader.section("stat.cells");
  GridCursor grids(reader.section("stat.grids").f64span());
  const std::uint64_t cellCount = cursor.u64();
  for (std::uint64_t i = 0; i < cellCount; ++i) {
    const std::string cellName = cursor.str();
    const liberty::CellFunction function = takeFunction(cursor);
    const double strength = cursor.f64();
    const double area = cursor.f64();
    statlib::StatCell cell(cellName, function, strength, area);
    const std::uint64_t arcCount = cursor.u64();
    for (std::uint64_t a = 0; a < arcCount; ++a) {
      statlib::StatArc arc;
      arc.relatedPin = cursor.str();
      arc.outputPin = cursor.str();
      arc.rise = takeStatLut(cursor, grids);
      arc.fall = takeStatLut(cursor, grids);
      cell.addArc(std::move(arc));
    }
    library.addCell(std::move(cell));
  }
  if (!grids.exhausted()) throw FormatError("trailing grid data");
  return library;
}

// ------------------------------------------------------------ constraints --

void encodeConstraints(SctbWriter& writer,
                       const tuning::LibraryConstraints& constraints) {
  writer.beginSection("cons.cells");
  Emit<SctbWriter>{writer}("cells", constraints.cells());
}

tuning::LibraryConstraints decodeConstraints(const SctbReader& reader) {
  SctbReader::Cursor cursor = reader.section("cons.cells");
  std::map<std::string, tuning::CellConstraint> cells;
  Read{cursor}("cells", cells);
  tuning::LibraryConstraints constraints;
  for (auto& [cellName, constraint] : cells) {
    constraints.setCell(cellName, std::move(constraint));
  }
  return constraints;
}

// ---------------------------------------------------------------- design --

void encodeDesign(SctbWriter& writer, const netlist::Design& design) {
  writer.beginSection("net.meta");
  writer.str(design.name());
  writer.u64(design.nameCounter());
  writer.u64(design.netCount());
  writer.u64(design.instanceCount());
  writer.u64(design.ports().size());

  writer.beginSection("net.nets");
  for (const netlist::Net& net : design.nets()) {
    writer.str(net.name);
    writer.u32(net.driver);
    writer.u32(net.driverSlot);
    writer.u64(net.sinks.size());
    for (const netlist::SinkRef& sink : net.sinks) {
      writer.u32(sink.instance);
      writer.u32(sink.inputSlot);
    }
    writer.boolean(net.isPrimaryOutput);
  }

  writer.beginSection("net.insts");
  for (const netlist::Instance& inst : design.instances()) {
    writer.str(inst.name);
    writer.u8(static_cast<std::uint8_t>(inst.op));
    writer.str(inst.cell != nullptr ? inst.cell->name() : std::string());
    writer.u64(inst.inputs.size());
    for (netlist::NetIndex net : inst.inputs) writer.u32(net);
    writer.u64(inst.outputs.size());
    for (netlist::NetIndex net : inst.outputs) writer.u32(net);
    writer.boolean(inst.alive);
  }

  writer.beginSection("net.ports");
  for (const netlist::Port& port : design.ports()) {
    writer.str(port.name);
    writer.u8(port.direction == netlist::PortDirection::kOutput ? 1 : 0);
    writer.u32(port.net);
  }
}

netlist::Design decodeDesign(const SctbReader& reader,
                             const liberty::Library* library) {
  SctbReader::Cursor meta = reader.section("net.meta");
  netlist::Design design(meta.str());
  const std::uint64_t nameCounter = meta.u64();
  const std::uint64_t netCount = meta.u64();
  const std::uint64_t instCount = meta.u64();
  const std::uint64_t portCount = meta.u64();

  SctbReader::Cursor nets = reader.section("net.nets");
  for (std::uint64_t i = 0; i < netCount; ++i) {
    const netlist::NetIndex index = design.addNet(nets.str());
    netlist::Net& net = design.net(index);
    net.driver = nets.u32();
    net.driverSlot = nets.u32();
    const std::uint64_t sinkCount = nets.u64();
    net.sinks.reserve(sinkCount);
    for (std::uint64_t s = 0; s < sinkCount; ++s) {
      netlist::SinkRef sink;
      sink.instance = nets.u32();
      sink.inputSlot = nets.u32();
      net.sinks.push_back(sink);
    }
    net.isPrimaryOutput = nets.boolean();
  }

  SctbReader::Cursor insts = reader.section("net.insts");
  for (std::uint64_t i = 0; i < instCount; ++i) {
    netlist::Instance inst;
    inst.name = insts.str();
    const std::uint8_t rawOp = insts.u8();
    if (rawOp > static_cast<std::uint8_t>(netlist::PrimOp::kDffE)) {
      throw FormatError("primitive op out of range");
    }
    inst.op = static_cast<netlist::PrimOp>(rawOp);
    const std::string cellName = insts.str();
    if (!cellName.empty()) {
      if (library == nullptr) {
        throw FormatError("mapped design needs a library to rebind '" +
                          cellName + "'");
      }
      inst.cell = library->findCell(cellName);
      if (inst.cell == nullptr) {
        throw FormatError("cell '" + cellName + "' not in library '" +
                          library->name() + "'");
      }
    }
    const std::uint64_t inCount = insts.u64();
    inst.inputs.reserve(inCount);
    for (std::uint64_t s = 0; s < inCount; ++s) inst.inputs.push_back(insts.u32());
    const std::uint64_t outCount = insts.u64();
    inst.outputs.reserve(outCount);
    for (std::uint64_t s = 0; s < outCount; ++s) {
      inst.outputs.push_back(insts.u32());
    }
    inst.alive = insts.boolean();
    design.addInstanceRaw(std::move(inst));
  }

  SctbReader::Cursor ports = reader.section("net.ports");
  for (std::uint64_t i = 0; i < portCount; ++i) {
    const std::string portName = ports.str();
    const netlist::PortDirection direction =
        ports.u8() != 0 ? netlist::PortDirection::kOutput
                        : netlist::PortDirection::kInput;
    const netlist::NetIndex net = ports.u32();
    if (net >= design.netCount()) throw FormatError("port net out of range");
    design.addPort(portName, direction, net);
  }

  design.setNameCounter(nameCounter);
  const std::string problem = design.validate();
  if (!problem.empty()) throw FormatError("decoded design invalid: " + problem);
  return design;
}

// ------------------------------------------------------- synthesis result --

void encodeSynthesisResult(SctbWriter& writer,
                           const synth::SynthesisResult& result) {
  writer.beginSection("synth.meta");
  synth::SynthesisResult::fields(result, Emit<SctbWriter>{writer});
  encodeDesign(writer, result.design);
}

synth::SynthesisResult decodeSynthesisResult(const SctbReader& reader,
                                             const liberty::Library* library) {
  SctbReader::Cursor meta = reader.section("synth.meta");
  synth::SynthesisResult result;
  synth::SynthesisResult::fields(result, Read{meta});
  result.design = decodeDesign(reader, library);
  return result;
}

// ----------------------------------------------------------- lint report --

void encodeLintReport(SctbWriter& writer, const lint::LintReport& report) {
  writer.beginSection("lintreport");
  Emit<SctbWriter>{writer}("diagnostics", report.diagnostics());
}

lint::LintReport decodeLintReport(const SctbReader& reader) {
  SctbReader::Cursor cursor = reader.section("lintreport");
  std::vector<lint::Diagnostic> diagnostics;
  Read{cursor}("diagnostics", diagnostics);
  lint::LintReport report;
  for (lint::Diagnostic& d : diagnostics) report.add(std::move(d));
  return report;
}

}  // namespace sct::artifact
