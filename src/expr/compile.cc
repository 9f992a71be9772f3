#include "expr/compile.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace gmr::expr {
namespace {

constexpr std::uint32_t kNoOutput = 0xffffffffu;

/// One distinct node of the system. Operators name their operand values;
/// leaves carry their payload (a constant's bit pattern or a slot).
struct Value {
  NodeKind kind = NodeKind::kConstant;
  bool reads_state = false;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t payload = 0;
};

bool SameValue(const Value& x, const Value& y) {
  return x.kind == y.kind && x.a == y.a && x.b == y.b &&
         x.payload == y.payload;
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Hash-conses the nodes of an equation system into values numbered in
/// postorder (operands before their users). One flat open-addressing table
/// holds an entry per value, keyed by the first Expr pointer that made it;
/// it is sized to the node count. The table and the value list are
/// per-thread scratch reused by every compile (an entry is live only under
/// the current stamp, so reuse needs no clearing).
class SystemCompiler {
 public:
  SystemCompiler(std::size_t node_count, std::size_t num_states)
      : scratch_(ThreadScratch()), num_states_(num_states) {
    // At most one entry per node, so the table stays at most half full.
    std::size_t capacity = 16;
    while (capacity < 2 * node_count + 1) capacity *= 2;
    if (scratch_.table.size() < capacity || ++scratch_.stamp == 0) {
      scratch_.table.assign(std::max(capacity, scratch_.table.size()),
                            Entry{});
      scratch_.stamp = 1;
    }
    table_ = scratch_.table.data();
    mask_ = capacity - 1;
    stamp_ = scratch_.stamp;
    scratch_.values.clear();
  }

  std::uint32_t Visit(const Expr& node) {
    const std::uint64_t hash = node.StructuralHash();
    // Pointer identity: a shared ExprPtr seen before is the same value,
    // without walking its subtree again.
    std::size_t i = hash & mask_;
    bool same_hash = false;
    for (; table_[i].stamp == stamp_; i = (i + 1) & mask_) {
      if (table_[i].node == &node) return table_[i].value;
      same_hash = same_hash || table_[i].hash == hash;
    }
    std::vector<Value>& values = scratch_.values;
    Value v;
    v.kind = node.kind();
    switch (node.kind()) {
      case NodeKind::kConstant:
        v.payload = DoubleBits(node.value());
        break;
      case NodeKind::kParameter:
        v.payload = static_cast<std::uint64_t>(node.slot());
        break;
      case NodeKind::kVariable:
        v.payload = static_cast<std::uint64_t>(node.slot());
        v.reads_state = static_cast<std::size_t>(node.slot()) < num_states_;
        break;
      default:
        v.a = Visit(*node.children()[0]);
        v.b = node.children().size() > 1 ? Visit(*node.children()[1]) : v.a;
        v.reads_state = values[v.a].reads_state || values[v.b].reads_state;
        break;
    }
    // A structural match must already have been in the probe chain: the
    // entries added since are this node's descendants. The operands are
    // canonical, so comparing operand values compares whole subtrees, and
    // constants compare by bit pattern. A match is not recorded under this
    // pointer too: equal leaves recur under many pointers, and one entry
    // per value keeps the chains short.
    if (same_hash) {
      for (std::size_t j = hash & mask_; j != i; j = (j + 1) & mask_) {
        if (table_[j].hash == hash && SameValue(values[table_[j].value], v)) {
          return table_[j].value;
        }
      }
    }
    GMR_CHECK_LT(values.size(), static_cast<std::size_t>(kNoOutput));
    const auto id = static_cast<std::uint32_t>(values.size());
    values.push_back(v);
    // Descendants may have taken the free slot found above.
    while (table_[i].stamp == stamp_) i = (i + 1) & mask_;
    table_[i] = Entry{&node, hash, id, stamp_};
    return id;
  }

  const std::vector<Value>& values() const { return scratch_.values; }

 private:
  struct Entry {
    const Expr* node = nullptr;
    std::uint64_t hash = 0;
    std::uint32_t value = 0;
    std::uint32_t stamp = 0;
  };
  struct Scratch {
    std::vector<Entry> table;
    std::vector<Value> values;
    std::uint32_t stamp = 0;
  };

  static Scratch& ThreadScratch() {
    thread_local Scratch scratch;
    return scratch;
  }

  Scratch& scratch_;
  std::size_t num_states_;
  Entry* table_ = nullptr;
  std::size_t mask_ = 0;
  std::uint32_t stamp_ = 0;
};

/// Runs `code` over the frame for a block of kWidth lanes (or `width`
/// lanes when kWidth is 0). The operator switch sits outside the lane
/// loop: each case is a branch-free sweep over independent lanes calling
/// the interpreter's scalar kernels with the operator fixed.
template <std::size_t kWidth>
void Execute(const RegisterInstruction* begin, const RegisterInstruction* end,
             double* frame, std::size_t runtime_width) {
  const std::size_t width = kWidth != 0 ? kWidth : runtime_width;
  for (const RegisterInstruction* it = begin; it != end; ++it) {
    const RegisterInstruction& ins = *it;
    double* __restrict dst = frame + ins.dst * width;
    const double* a = frame + ins.a * width;
    const double* b = frame + ins.b * width;
    switch (ins.op) {
      case NodeKind::kAdd:
        for (std::size_t l = 0; l < width; ++l) dst[l] = a[l] + b[l];
        break;
      case NodeKind::kSub:
        for (std::size_t l = 0; l < width; ++l) dst[l] = a[l] - b[l];
        break;
      case NodeKind::kMul:
        for (std::size_t l = 0; l < width; ++l) dst[l] = a[l] * b[l];
        break;
      case NodeKind::kDiv:
        for (std::size_t l = 0; l < width; ++l) {
          dst[l] = ApplyBinary(NodeKind::kDiv, a[l], b[l]);
        }
        break;
      case NodeKind::kMin:
        for (std::size_t l = 0; l < width; ++l) {
          dst[l] = ApplyBinary(NodeKind::kMin, a[l], b[l]);
        }
        break;
      case NodeKind::kMax:
        for (std::size_t l = 0; l < width; ++l) {
          dst[l] = ApplyBinary(NodeKind::kMax, a[l], b[l]);
        }
        break;
      case NodeKind::kNeg:
        for (std::size_t l = 0; l < width; ++l) dst[l] = -a[l];
        break;
      case NodeKind::kLog:
        for (std::size_t l = 0; l < width; ++l) {
          dst[l] = ApplyUnary(NodeKind::kLog, a[l]);
        }
        break;
      case NodeKind::kExp:
        for (std::size_t l = 0; l < width; ++l) {
          dst[l] = ApplyUnary(NodeKind::kExp, a[l]);
        }
        break;
      default:
        break;  // Leaves are operands, never instructions.
    }
  }
}

template <std::size_t kWidth, typename LoadT>
void LoadLeaves(const LoadT* begin, const LoadT* end, const double* source,
                double* frame, std::size_t runtime_width) {
  const std::size_t width = kWidth != 0 ? kWidth : runtime_width;
  for (const LoadT* load = begin; load != end; ++load) {
    const double* from = source + load->slot * width;
    double* to = frame + load->reg * width;
    for (std::size_t l = 0; l < width; ++l) to[l] = from[l];
  }
}

}  // namespace

SystemProgram CompileSystem(const std::vector<const Expr*>& roots,
                            std::size_t num_states) {
  std::size_t node_count = 0;
  for (const Expr* root : roots) {
    if (root != nullptr) node_count += root->NodeCount();
  }
  SystemCompiler compiler(node_count, num_states);
  SystemProgram program;
  program.outputs_.reserve(roots.size());
  for (const Expr* root : roots) {
    program.outputs_.push_back(root != nullptr ? compiler.Visit(*root)
                                               : kNoOutput);
  }
  const std::vector<Value>& values = compiler.values();
  program.num_registers_ = static_cast<std::uint32_t>(values.size());
  // Count each segment, then place every value at its segment's cursor.
  std::size_t day = 0, stage = 0, constants = 0, parameters = 0;
  std::size_t drivers = 0, states = 0;
  for (const Value& v : values) {
    switch (v.kind) {
      case NodeKind::kConstant:
        ++constants;
        break;
      case NodeKind::kParameter:
        ++parameters;
        break;
      case NodeKind::kVariable:
        ++(v.reads_state ? states : drivers);
        break;
      default:
        ++(v.reads_state ? stage : day);
        break;
    }
  }
  program.code_.resize(day + stage);
  program.stage_begin_ = day;
  program.loads_.resize(parameters + drivers + states);
  program.driver_begin_ = parameters;
  program.state_begin_ = parameters + drivers;
  program.constants_.reserve(constants);
  std::size_t next_day = 0, next_stage = day, next_parameter = 0;
  std::size_t next_driver = program.driver_begin_;
  std::size_t next_state = program.state_begin_;
  for (std::uint32_t r = 0; r < program.num_registers_; ++r) {
    const Value& v = values[r];
    const auto slot = static_cast<std::uint32_t>(v.payload);
    switch (v.kind) {
      case NodeKind::kConstant:
        program.constants_.push_back({r, BitsDouble(v.payload)});
        break;
      case NodeKind::kParameter:
        program.loads_[next_parameter++] = {r, slot};
        program.parameter_bound_ =
            std::max<std::size_t>(program.parameter_bound_, slot + 1u);
        break;
      case NodeKind::kVariable: {
        std::size_t& next = v.reads_state ? next_state : next_driver;
        program.loads_[next++] = {r, slot};
        program.variable_bound_ =
            std::max<std::size_t>(program.variable_bound_, slot + 1u);
        break;
      }
      default:
        // Values are numbered in postorder, so each tier's instructions
        // come after those of their operands.
        program.code_[v.reads_state ? next_stage++ : next_day++] = {
            v.kind, r, v.a, v.b};
        break;
    }
  }
  return program;
}

void SystemProgram::RunDay(const BatchEvalContext& ctx) const {
  const std::size_t width = ctx.width;
  GMR_CHECK_GT(width, 0u);
  GMR_CHECK_LE(variable_bound_, ctx.num_variables);
  GMR_CHECK_LE(parameter_bound_, ctx.num_parameters);
  if (frame_width_ != width) {
    frame_.assign(static_cast<std::size_t>(num_registers_) * width, 0.0);
    for (const ConstantRegister& c : constants_) {
      std::fill_n(frame_.data() + c.reg * width, width, c.value);
    }
    frame_width_ = width;
  }
  if (width == 1) {
    DayAt<1>(ctx);
  } else {
    DayAt<0>(ctx);
  }
}

template <std::size_t kWidth>
void SystemProgram::DayAt(const BatchEvalContext& ctx) const {
  const std::size_t width = kWidth != 0 ? kWidth : ctx.width;
  double* frame = frame_.data();
  const Load* loads = loads_.data();
  LoadLeaves<kWidth>(loads, loads + driver_begin_, ctx.parameters, frame,
                     width);
  LoadLeaves<kWidth>(loads + driver_begin_, loads + state_begin_,
                     ctx.variables, frame, width);
  Execute<kWidth>(code_.data(), code_.data() + stage_begin_, frame, width);
}

void SystemProgram::RunStage(const BatchEvalContext& ctx, double* out) const {
  GMR_CHECK_EQ(ctx.width, frame_width_);
  if (ctx.width == 1) {
    StageAt<1>(ctx, out);
  } else {
    StageAt<0>(ctx, out);
  }
}

template <std::size_t kWidth>
void SystemProgram::StageAt(const BatchEvalContext& ctx, double* out) const {
  const std::size_t width = kWidth != 0 ? kWidth : ctx.width;
  double* frame = frame_.data();
  LoadLeaves<kWidth>(loads_.data() + state_begin_,
                     loads_.data() + loads_.size(), ctx.variables, frame,
                     width);
  Execute<kWidth>(code_.data() + stage_begin_, code_.data() + code_.size(),
                  frame, width);
  for (std::size_t e = 0; e < outputs_.size(); ++e) {
    if (outputs_[e] == kNoOutput) continue;
    const double* from = frame + outputs_[e] * width;
    double* to = out + e * width;
    for (std::size_t l = 0; l < width; ++l) to[l] = from[l];
  }
}

double CompiledProgram::Run(const EvalContext& ctx) const {
  GMR_CHECK(!program_.empty());
  BatchEvalContext lane;
  lane.variables = ctx.variables;
  lane.num_variables = ctx.num_variables;
  lane.parameters = ctx.parameters;
  lane.num_parameters = ctx.num_parameters;
  lane.width = 1;
  double out = 0.0;
  program_.Run(lane, &out);
  return out;
}

CompiledProgram Compile(const Expr& root) {
  CompiledProgram program;
  program.program_ = CompileSystem({&root}, 0);
  return program;
}

}  // namespace gmr::expr
