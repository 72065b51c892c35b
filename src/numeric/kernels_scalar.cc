// The `scalar` kernel backend: the generic fixed-order bodies instantiated
// under the base architecture flags (no per-file -march). This TU is the
// determinism oracle every other backend is tested against -- see
// kernels_generic.h for why the instantiation here is bit-identical to the
// pre-dispatch kernel layer.
#include "numeric/kernel_backend.h"
#include "numeric/kernels_generic.h"

namespace tg::kernels::internal {
namespace {

const KernelBackend kScalarBackend = {
    "scalar",
    generic::Dot,
    generic::Sum,
    generic::Add,
    generic::Sub,
    generic::Mul,
    generic::Scale,
    generic::Axpy,
    generic::ScaleAdd,
    generic::MulAdd,
    generic::FusedDotSigmoidUpdate,
};

}  // namespace

const KernelBackend* ScalarBackendTable() { return &kScalarBackend; }

}  // namespace tg::kernels::internal
