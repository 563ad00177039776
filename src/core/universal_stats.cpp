#include "objects/specs.hpp"
#include "universal2/paper_universal.hpp"

namespace apram {

// Anchor translation unit: instantiate the universal construction for the
// counter spec so template errors surface in the library build, not only in
// client code.
template class UniversalObjectSim<CounterSpec>;

}  // namespace apram
