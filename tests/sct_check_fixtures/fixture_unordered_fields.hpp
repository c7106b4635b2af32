// sct_check fixture: seeded det.unordered-in-serializer violation.
// The basename matches the serializer pattern (field-list encoders), so the
// unordered map below must be flagged: a field list that visits it would
// emit record or key bytes in hash order.
// NOT part of any build target — analyzed only by sct_check's self-test.

#include <string>
#include <unordered_map>

namespace fixture {

struct Record {
  std::unordered_map<std::string, double> windows;  // hash-order entries

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("windows", s.windows);
  }
};

}  // namespace fixture
