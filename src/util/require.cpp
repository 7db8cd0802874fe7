#include "src/util/require.h"

namespace anyqos::util {

void fail_requirement(std::string_view message) {
  throw std::invalid_argument(std::string(message));
}

void fail_invariant(std::string_view message) { throw InvariantError(std::string(message)); }

void unreachable(std::string_view message) {
  throw InvariantError("unreachable: " + std::string(message));
}

}  // namespace anyqos::util
