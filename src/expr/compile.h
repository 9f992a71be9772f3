#ifndef GMR_EXPR_COMPILE_H_
#define GMR_EXPR_COMPILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "expr/ast.h"
#include "expr/eval.h"

namespace gmr::expr {

/// Structure-of-arrays evaluation environment of the compiled backends:
/// lane `l` of slot `s` lives at index `s * width + l`, so one program run
/// evaluates a whole lane block. Width 1 degenerates to the scalar
/// EvalContext layout (SoA == AoS at stride 1), which is what lets the
/// scalar rollout paths run the same executor.
struct BatchEvalContext {
  /// variables[slot * width + lane].
  const double* variables = nullptr;
  std::size_t num_variables = 0;
  /// parameters[slot * width + lane] — lanes may carry distinct parameter
  /// vectors (the calibration/ensemble workloads batch over them).
  const double* parameters = nullptr;
  std::size_t num_parameters = 0;
  /// Number of lanes evaluated per call.
  std::size_t width = 1;
};

/// One three-address instruction over the register frame:
/// frame[dst] = op(frame[a], frame[b]); unary operators ignore `b`.
struct RegisterInstruction {
  NodeKind op = NodeKind::kAdd;
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Runtime-compilation backend.
///
/// The paper compiles each candidate process to C source with g++ and
/// dlopen()s the result so that the thousands of per-time-step evaluations
/// during fitness evaluation run compiled code instead of re-parsing the
/// tree. This library substitutes an in-process equivalent: a candidate's
/// whole equation system is compiled once into three-address code over a
/// lane-strided register frame (register r of lane l at r * width + l).
///
/// - Leaves are operands, not instructions: constants live in registers
///   filled when the frame is sized, parameter and variable leaves are
///   loaded into registers before the tier that needs them runs.
/// - Every distinct subexpression gets one register, however often it
///   occurs within or across equations (hash-consed on StructuralHash;
///   constants compare by bit pattern, so 0.0 and -0.0 stay distinct).
/// - Registers that read no state slot (variable slots [0, num_states))
///   form the day tier: drivers, parameters and constants only, evaluated
///   by RunDay once per day. The rest form the stage tier, evaluated by
///   RunStage at every Derivatives call.
///
/// Every register holds the same ApplyUnary/ApplyBinary kernel applied to
/// the same operand values as the tree interpreter's walk, so each output
/// is bit-identical to EvalExpr on its root, on every lane and at every
/// width. The frame is mutable scratch, so a program is not safe to run
/// from two threads concurrently (compile one per evaluation instead).
class SystemProgram {
 public:
  /// Sizes the frame for ctx.width (filling the constant registers on a
  /// width change), loads the parameter and driver leaves and evaluates
  /// the day tier. Run it whenever drivers or parameters change, and
  /// before the first RunStage at a new width.
  void RunDay(const BatchEvalContext& ctx) const;

  /// Loads the state leaves, evaluates the stage tier and writes output e
  /// to out[e * width + lane] for every non-null root e (null roots leave
  /// their rows untouched). Reuses the day tier of the last RunDay, which
  /// must have run at the same width.
  void RunStage(const BatchEvalContext& ctx, double* out) const;

  /// Both tiers: the whole system on fresh inputs.
  void Run(const BatchEvalContext& ctx, double* out) const {
    RunDay(ctx);
    RunStage(ctx, out);
  }

  /// Operator instructions per tier; leaves are not instructions.
  std::size_t day_size() const { return stage_begin_; }
  std::size_t stage_size() const { return code_.size() - stage_begin_; }
  std::size_t size() const { return code_.size(); }
  /// Registers per lane: one per distinct node of the system.
  std::size_t num_registers() const { return num_registers_; }
  /// True for a default-constructed program.
  bool empty() const { return outputs_.empty(); }

 private:
  friend SystemProgram CompileSystem(const std::vector<const Expr*>& roots,
                                     std::size_t num_states);

  /// A leaf register loaded from slot `slot` of the variable or parameter
  /// block.
  struct Load {
    std::uint32_t reg;
    std::uint32_t slot;
  };
  struct ConstantRegister {
    std::uint32_t reg;
    double value;
  };

  /// The day tier, then the stage tier from stage_begin_ on.
  std::vector<RegisterInstruction> code_;
  std::size_t stage_begin_ = 0;
  /// Parameter leaves, then driver leaves from driver_begin_ on, then
  /// state leaves from state_begin_ on.
  std::vector<Load> loads_;
  std::size_t driver_begin_ = 0;
  std::size_t state_begin_ = 0;
  std::vector<ConstantRegister> constants_;
  /// Register of each root; kNoOutput for a null root.
  std::vector<std::uint32_t> outputs_;
  std::uint32_t num_registers_ = 0;
  /// One past the largest slot read (checked against each context).
  std::size_t variable_bound_ = 0;
  std::size_t parameter_bound_ = 0;

  /// The tiers for a block of kWidth lanes, or of ctx.width when kWidth
  /// is 0 (width 1 is the scalar rollouts' compile-time case).
  template <std::size_t kWidth>
  void DayAt(const BatchEvalContext& ctx) const;
  template <std::size_t kWidth>
  void StageAt(const BatchEvalContext& ctx, double* out) const;

  mutable std::vector<double> frame_;
  mutable std::size_t frame_width_ = 0;
};

/// Compiles the equation system `roots` (null entries produce no output).
/// Variable slots below `num_states` are states that change between
/// RunStage calls; every other leaf belongs to the day tier.
SystemProgram CompileSystem(const std::vector<const Expr*>& roots,
                            std::size_t num_states);

/// One-equation scalar entry point (the toy fitnesses, oracles and
/// microbenchmarks): runs both tiers of a one-root system at width 1.
class CompiledProgram {
 public:
  /// Executes the program; bit-identical to EvalExpr on the source tree.
  double Run(const EvalContext& ctx) const;

  /// Number of operator instructions (leaves are operands, and a
  /// subexpression repeated within the tree is computed once).
  std::size_t size() const { return program_.size(); }

  /// True when Compile has not been run.
  bool empty() const { return program_.empty(); }

 private:
  friend CompiledProgram Compile(const Expr& root);

  SystemProgram program_;
};

/// Compiles `root` into a one-equation CompiledProgram.
CompiledProgram Compile(const Expr& root);

}  // namespace gmr::expr

#endif  // GMR_EXPR_COMPILE_H_
