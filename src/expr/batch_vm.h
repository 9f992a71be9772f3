#ifndef GMR_EXPR_BATCH_VM_H_
#define GMR_EXPR_BATCH_VM_H_

#include <cstddef>

#include "common/check.h"
#include "expr/ast.h"
#include "expr/compile.h"

namespace gmr::expr {

/// One-equation lane-block entry point (the oracles and tests): runs both
/// tiers of a one-root SystemProgram (compile.h) over a whole lane block
/// per call. Lane `l` is bit-identical to EvalExpr over lane l's slots at
/// every width, so width 1 ≡ width 16 bitwise (the `batch_width` fuzz
/// property pins this).
class BatchProgram {
 public:
  /// Evaluates all lanes; writes out[lane] for lane in [0, ctx.width).
  /// A lane whose inputs already diverged simply produces a non-finite or
  /// wild value — divergence isolation (masking a lane out of further
  /// integration without aborting its neighbors) is the rollout's job, not
  /// the program's: lanes cannot contaminate each other by construction.
  void RunLanes(const BatchEvalContext& ctx, double* out) const {
    GMR_CHECK(!program_.empty());
    program_.Run(ctx, out);
  }

  std::size_t size() const { return program_.size(); }
  bool empty() const { return program_.empty(); }

 private:
  friend BatchProgram CompileBatch(const Expr& root);

  SystemProgram program_;
};

/// Compiles `root` into a one-equation BatchProgram.
inline BatchProgram CompileBatch(const Expr& root) {
  BatchProgram program;
  program.program_ = CompileSystem({&root}, 0);
  return program;
}

}  // namespace gmr::expr

#endif  // GMR_EXPR_BATCH_VM_H_
