#include "src/llvmir/symbolic_semantics.h"

#include "src/sem/sync_point.h"
#include "src/support/diagnostics.h"

namespace keq::llvmir {

using sem::ErrorKind;
using sem::Status;
using sem::SymbolicState;
using smt::Kind;
using smt::Term;
using support::ApInt;

Term
addSubOverflow(smt::TermFactory &tf, bool is_add, bool is_signed, Term a,
               Term b, Term result)
{
    if (!is_signed) // the x86 CF: a+b <u a, a <u b
        return is_add ? tf.bvUlt(result, a) : tf.bvUlt(a, b);
    // The x86 OF, so the term hash-conses with the vx86 side: add iff
    // sign(a) = sign(b) != sign(r), sub iff sign(a) != sign(b) and
    // sign(r) != sign(a).
    unsigned w = a.sort().width();
    Term sign_src = is_add ? tf.bvAnd(tf.bvXor(a, result),
                                      tf.bvXor(b, result))
                           : tf.bvAnd(tf.bvXor(a, b), tf.bvXor(a, result));
    return tf.mkEq(tf.extract(sign_src, w - 1, w - 1), tf.bvConst(1, 1));
}

SymbolicSemantics::SymbolicSemantics(const Module &module,
                                     smt::TermFactory &factory,
                                     const mem::MemoryLayout &layout)
    : module_(module), factory_(factory), symMem_(factory, layout)
{}

const Function &
SymbolicSemantics::function(const std::string &name) const
{
    const Function *fn = module_.findFunction(name);
    KEQ_ASSERT(fn != nullptr && !fn->isDeclaration(),
               "unknown function " + name);
    return *fn;
}

const Instruction &
SymbolicSemantics::currentInst(const SymbolicState &state) const
{
    const Function &fn = function(state.function);
    const BasicBlock *block = fn.findBlock(state.block);
    KEQ_ASSERT(block != nullptr, "unknown block " + state.block);
    KEQ_ASSERT(state.instIndex < block->insts.size(),
               "instruction index out of range");
    return block->insts[state.instIndex];
}

Term
SymbolicSemantics::evalValue(SymbolicState &state, const std::string &fn,
                             const Value &value)
{
    switch (value.kind) {
      case Value::Kind::Const:
        return factory_.bvConst(value.constant);
      case Value::Kind::Var: {
        auto it = state.env.find(value.name);
        if (it != state.env.end())
            return it->second;
        // Havoc an unbound use: sound over-approximation (see
        // sem::Semantics contract).
        Term fresh = factory_.freshVar(
            "havoc." + fn + "." + value.name,
            smt::Sort::bitVec(value.type->valueBits()));
        state.env[value.name] = fresh;
        return fresh;
      }
      case Value::Kind::Global: {
        const mem::MemoryObject *object =
            symMem_.layout().find(value.name);
        KEQ_ASSERT(object != nullptr, "unknown global " + value.name);
        return factory_.bvConst(64, object->base);
      }
    }
    KEQ_ASSERT(false, "evalValue: bad kind");
    return {};
}

sem::SymbolicState
SymbolicSemantics::makeState(const sem::StateSeed &seed,
                             std::map<std::string, smt::Term> env,
                             smt::Term memory, smt::Term path_cond)
{
    const Function &fn = function(seed.function);
    SymbolicState state;
    state.status = Status::Running;
    state.function = seed.function;
    state.block = seed.block.empty() ? fn.entry().name : seed.block;
    state.cameFrom = seed.cameFrom;
    state.instIndex = 0;
    state.env = std::move(env);
    state.memory = memory;
    state.pathCond = path_cond;

    if (!seed.afterCallSiteId.empty()) {
        // Position immediately after the call site with the given id.
        bool found = false;
        for (const BasicBlock &block : fn.blocks) {
            for (size_t i = 0; i < block.insts.size(); ++i) {
                const Instruction &inst = block.insts[i];
                if (inst.op == Opcode::Call &&
                    inst.callSiteId == seed.afterCallSiteId) {
                    state.block = block.name;
                    state.instIndex = i + 1;
                    found = true;
                }
            }
        }
        KEQ_ASSERT(found, "unknown call site " + seed.afterCallSiteId);
    }
    return state;
}

unsigned
SymbolicSemantics::registerWidth(const std::string &function_name,
                                 const std::string &reg) const
{
    const Function &fn = function(function_name);
    if (reg == sem::kReturnValueName)
        return fn.returnType->isVoid() ? 0 : fn.returnType->valueBits();
    for (const Parameter &param : fn.params) {
        if (param.name == reg)
            return param.type->valueBits();
    }
    for (const BasicBlock &block : fn.blocks) {
        for (const Instruction &inst : block.insts) {
            if (inst.result == reg) {
                KEQ_ASSERT(inst.type != nullptr && !inst.type->isVoid(),
                           "register without type: " + reg);
                return inst.type->valueBits();
            }
        }
    }
    KEQ_ASSERT(false, "unknown LLVM register " + reg + " in " +
                          function_name);
    return 0;
}

void
SymbolicSemantics::bindRegister(sem::SymbolicState &state,
                                const std::string &function_name,
                                const std::string &reg, smt::Term value)
{
    KEQ_ASSERT(reg != sem::kReturnValueName,
               "cannot bind the return-value pseudo register");
    KEQ_ASSERT(value.sort().isBitVec() &&
                   value.sort().width() ==
                       registerWidth(function_name, reg),
               "bindRegister width mismatch for " + reg);
    state.env[reg] = value;
}

smt::Term
SymbolicSemantics::readRegister(sem::SymbolicState &state,
                                const std::string &function_name,
                                const std::string &reg)
{
    if (reg == sem::kReturnValueName) {
        KEQ_ASSERT(state.status == Status::Exited,
                   "$ret read on non-exited state");
        return state.result;
    }
    auto it = state.env.find(reg);
    if (it != state.env.end())
        return it->second;
    smt::Term fresh = factory_.freshVar(
        "havoc." + function_name + "." + reg,
        smt::Sort::bitVec(registerWidth(function_name, reg)));
    state.env[reg] = fresh;
    return fresh;
}

std::vector<sem::SymbolicState>
SymbolicSemantics::step(const sem::SymbolicState &state_in)
{
    KEQ_ASSERT(state_in.status == Status::Running,
               "step on non-running state");
    SymbolicState state = state_in; // successors start as a copy
    const Function &fn = function(state.function);
    const Instruction &inst = currentInst(state);
    smt::TermFactory &tf = factory_;

    auto errorState = [&](ErrorKind kind, Term condition) {
        SymbolicState err = state;
        err.status = Status::Error;
        err.errorKind = kind;
        err.pathCond = tf.mkAnd(state_in.pathCond, condition);
        return err;
    };

    auto advance = [&](SymbolicState s) {
        ++s.instIndex;
        return s;
    };

    switch (inst.op) {
      case Opcode::Phi: {
        // Execute the whole phi group of this block in one parallel step.
        const BasicBlock *block = fn.findBlock(state.block);
        std::map<std::string, Term> updates;
        size_t i = state.instIndex;
        for (; i < block->insts.size() &&
               block->insts[i].op == Opcode::Phi;
             ++i) {
            const Instruction &phi = block->insts[i];
            bool found = false;
            for (const PhiIncoming &incoming : phi.incoming) {
                if (incoming.block == state.cameFrom) {
                    updates[phi.result] =
                        evalValue(state, fn.name, incoming.value);
                    found = true;
                    break;
                }
            }
            KEQ_ASSERT(found,
                       "phi without incoming for %" + state.cameFrom);
        }
        for (auto &[name, term] : updates)
            state.env[name] = term;
        state.instIndex = i;
        return {state};
      }

      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul: {
        Term a = evalValue(state, fn.name, inst.operands[0]);
        Term b = evalValue(state, fn.name, inst.operands[1]);
        Kind kind = inst.op == Opcode::Add   ? Kind::BvAdd
                    : inst.op == Opcode::Sub ? Kind::BvSub
                                             : Kind::BvMul;
        Term result = tf.bvBinOp(kind, a, b);
        std::vector<SymbolicState> successors;
        Term ok = tf.trueTerm();
        if (inst.nsw || inst.nuw) {
            unsigned w = a.sort().width();
            auto overflows = [&](bool is_signed) {
                if (inst.op != Opcode::Mul) {
                    return addSubOverflow(tf, inst.op == Opcode::Add,
                                          is_signed, a, b, result);
                }
                // mul keeps the 2w-bit form: the wide product differs
                // from the extended result.
                auto ext = [&](Term t) {
                    return is_signed ? tf.sext(t, 2 * w) : tf.zext(t, 2 * w);
                };
                return tf.mkNot(
                    tf.mkEq(tf.bvMul(ext(a), ext(b)), ext(result)));
            };
            Term overflow = tf.falseTerm();
            if (inst.nsw)
                overflow = tf.mkOr(overflow, overflows(true));
            if (inst.nuw)
                overflow = tf.mkOr(overflow, overflows(false));
            ok = tf.mkNot(overflow);
            if (!overflow.isFalse()) {
                successors.push_back(
                    errorState(ErrorKind::SignedOverflow, overflow));
            }
        }
        state.env[inst.result] = result;
        state.pathCond = tf.mkAnd(state.pathCond, ok);
        if (!state.pathCond.isFalse())
            successors.push_back(advance(state));
        return successors;
      }

      case Opcode::UDiv:
      case Opcode::SDiv:
      case Opcode::URem:
      case Opcode::SRem: {
        Term a = evalValue(state, fn.name, inst.operands[0]);
        Term b = evalValue(state, fn.name, inst.operands[1]);
        unsigned w = a.sort().width();
        std::vector<SymbolicState> successors;
        Term zero = tf.bvConst(w, 0);
        Term div_by_zero = tf.mkEq(b, zero);
        if (!div_by_zero.isFalse()) {
            successors.push_back(
                errorState(ErrorKind::DivByZero, div_by_zero));
        }
        Term ok = tf.mkNot(div_by_zero);
        bool is_signed =
            inst.op == Opcode::SDiv || inst.op == Opcode::SRem;
        if (is_signed) {
            Term overflow = tf.mkAnd(
                tf.mkEq(a, tf.bvConst(ApInt::signedMin(w))),
                tf.mkEq(b, tf.bvConst(ApInt::allOnes(w))));
            if (!overflow.isFalse()) {
                successors.push_back(errorState(
                    ErrorKind::SignedOverflow,
                    tf.mkAnd(ok, overflow)));
            }
            ok = tf.mkAnd(ok, tf.mkNot(overflow));
        }
        Kind kind = inst.op == Opcode::UDiv   ? Kind::BvUDiv
                    : inst.op == Opcode::SDiv ? Kind::BvSDiv
                    : inst.op == Opcode::URem ? Kind::BvURem
                                              : Kind::BvSRem;
        state.env[inst.result] = tf.bvBinOp(kind, a, b);
        state.pathCond = tf.mkAnd(state.pathCond, ok);
        if (!state.pathCond.isFalse())
            successors.push_back(advance(state));
        return successors;
      }

      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::LShr:
      case Opcode::AShr: {
        Term a = evalValue(state, fn.name, inst.operands[0]);
        Term b = evalValue(state, fn.name, inst.operands[1]);
        Kind kind = inst.op == Opcode::And   ? Kind::BvAnd
                    : inst.op == Opcode::Or  ? Kind::BvOr
                    : inst.op == Opcode::Xor ? Kind::BvXor
                    : inst.op == Opcode::Shl ? Kind::BvShl
                    : inst.op == Opcode::LShr ? Kind::BvLShr
                                              : Kind::BvAShr;
        state.env[inst.result] = tf.bvBinOp(kind, a, b);
        return {advance(state)};
      }

      case Opcode::ICmp: {
        Term a = evalValue(state, fn.name, inst.operands[0]);
        Term b = evalValue(state, fn.name, inst.operands[1]);
        Term cond;
        switch (inst.pred) {
          case ICmpPred::Eq: cond = tf.mkEq(a, b); break;
          case ICmpPred::Ne: cond = tf.mkNot(tf.mkEq(a, b)); break;
          case ICmpPred::Ult: cond = tf.bvUlt(a, b); break;
          case ICmpPred::Ule: cond = tf.bvUle(a, b); break;
          case ICmpPred::Ugt: cond = tf.bvUgt(a, b); break;
          case ICmpPred::Uge: cond = tf.bvUge(a, b); break;
          case ICmpPred::Slt: cond = tf.bvSlt(a, b); break;
          case ICmpPred::Sle: cond = tf.bvSle(a, b); break;
          case ICmpPred::Sgt: cond = tf.bvSgt(a, b); break;
          case ICmpPred::Sge: cond = tf.bvSge(a, b); break;
        }
        state.env[inst.result] = tf.mkIte(cond, tf.bvConst(1, 1),
                                          tf.bvConst(1, 0));
        return {advance(state)};
      }

      case Opcode::ZExt:
        state.env[inst.result] =
            tf.zext(evalValue(state, fn.name, inst.operands[0]),
                    inst.type->valueBits());
        return {advance(state)};
      case Opcode::SExt:
        state.env[inst.result] =
            tf.sext(evalValue(state, fn.name, inst.operands[0]),
                    inst.type->valueBits());
        return {advance(state)};
      case Opcode::Trunc:
        state.env[inst.result] =
            tf.trunc(evalValue(state, fn.name, inst.operands[0]),
                     inst.type->valueBits());
        return {advance(state)};
      case Opcode::PtrToInt: {
        Term p = evalValue(state, fn.name, inst.operands[0]);
        unsigned bits = inst.type->valueBits();
        state.env[inst.result] = bits <= p.sort().width()
                                     ? tf.trunc(p, bits)
                                     : tf.zext(p, bits);
        return {advance(state)};
      }
      case Opcode::IntToPtr: {
        Term v = evalValue(state, fn.name, inst.operands[0]);
        state.env[inst.result] =
            v.sort().width() < 64 ? tf.zext(v, 64) : v;
        return {advance(state)};
      }
      case Opcode::Bitcast:
        state.env[inst.result] =
            evalValue(state, fn.name, inst.operands[0]);
        return {advance(state)};

      case Opcode::GetElementPtr: {
        Term address = evalValue(state, fn.name, inst.operands[0]);
        const Type *current = inst.sourceType;
        for (size_t i = 1; i < inst.operands.size(); ++i) {
            Term index = evalValue(state, fn.name, inst.operands[i]);
            unsigned iw = index.sort().width();
            Term wide = iw < 64 ? tf.sext(index, 64) : index;
            if (i == 1) {
                Term scale = tf.bvConst(64, current->sizeInBytes());
                address = tf.bvAdd(address, tf.bvMul(wide, scale));
            } else if (current->isArray()) {
                Term scale = tf.bvConst(
                    64, current->elementType()->sizeInBytes());
                address = tf.bvAdd(address, tf.bvMul(wide, scale));
                current = current->elementType();
            } else {
                KEQ_ASSERT(current->isStruct(), "gep into scalar");
                KEQ_ASSERT(inst.operands[i].isConst(),
                           "struct gep index must be constant");
                uint64_t field = inst.operands[i].constant.zext();
                address = tf.bvAdd(
                    address,
                    tf.bvConst(
                        64, current->fieldOffset(
                                static_cast<unsigned>(field))));
                current = current->fields()[field];
            }
        }
        state.env[inst.result] = address;
        return {advance(state)};
      }

      case Opcode::Load: {
        Term address = evalValue(state, fn.name, inst.operands[0]);
        unsigned size = static_cast<unsigned>(inst.type->sizeInBytes());
        mem::AccessCheck check = symMem_.checkAccess(address, size);
        std::vector<SymbolicState> successors;
        if (!check.inBounds.isTrue()) {
            successors.push_back(errorState(
                ErrorKind::OutOfBounds, tf.mkNot(check.inBounds)));
        }
        if (!check.inBounds.isFalse()) {
            Term loaded = symMem_.read(state.memory, address, size);
            state.env[inst.result] =
                tf.trunc(loaded, inst.type->valueBits());
            state.pathCond = tf.mkAnd(state.pathCond, check.inBounds);
            successors.push_back(advance(state));
        }
        return successors;
      }

      case Opcode::Store: {
        Term value = evalValue(state, fn.name, inst.operands[0]);
        Term address = evalValue(state, fn.name, inst.operands[1]);
        unsigned size = static_cast<unsigned>(inst.type->sizeInBytes());
        mem::AccessCheck check = symMem_.checkAccess(address, size);
        std::vector<SymbolicState> successors;
        if (!check.inBounds.isTrue()) {
            successors.push_back(errorState(
                ErrorKind::OutOfBounds, tf.mkNot(check.inBounds)));
        }
        if (!check.inBounds.isFalse()) {
            Term wide = tf.zext(value, size * 8);
            state.memory =
                symMem_.write(state.memory, address, wide, size);
            state.pathCond = tf.mkAnd(state.pathCond, check.inBounds);
            successors.push_back(advance(state));
        }
        return successors;
      }

      case Opcode::Alloca: {
        const mem::MemoryObject *object =
            symMem_.layout().find(fn.name + "/" + inst.result);
        KEQ_ASSERT(object != nullptr,
                   "alloca slot missing from layout: " + inst.result);
        state.env[inst.result] = tf.bvConst(64, object->base);
        return {advance(state)};
      }

      case Opcode::Select: {
        Term cond = evalValue(state, fn.name, inst.operands[0]);
        Term a = evalValue(state, fn.name, inst.operands[1]);
        Term b = evalValue(state, fn.name, inst.operands[2]);
        state.env[inst.result] =
            tf.mkIte(tf.mkEq(cond, tf.bvConst(1, 1)), a, b);
        return {advance(state)};
      }

      case Opcode::Br: {
        state.cameFrom = state.block;
        state.block = inst.target1;
        state.instIndex = 0;
        return {state};
      }

      case Opcode::CondBr: {
        Term cond = evalValue(state, fn.name, inst.operands[0]);
        Term taken = tf.mkEq(cond, tf.bvConst(1, 1));
        std::vector<SymbolicState> successors;
        if (!taken.isFalse()) {
            SymbolicState t = state;
            t.pathCond = tf.mkAnd(state.pathCond, taken);
            t.cameFrom = state.block;
            t.block = inst.target1;
            t.instIndex = 0;
            successors.push_back(std::move(t));
        }
        if (!taken.isTrue()) {
            SymbolicState f = state;
            f.pathCond = tf.mkAnd(state.pathCond, tf.mkNot(taken));
            f.cameFrom = state.block;
            f.block = inst.target2;
            f.instIndex = 0;
            successors.push_back(std::move(f));
        }
        return successors;
      }

      case Opcode::Switch: {
        Term selector = evalValue(state, fn.name, inst.operands[0]);
        std::vector<SymbolicState> successors;
        // Sequential case tests, mirroring the CMP/JE chain the ISel
        // pass emits, so the two languages' path conditions hash-cons
        // to identical terms.
        Term no_match = tf.trueTerm();
        for (const auto &[value, target] : inst.switchCases) {
            Term hit = tf.mkEq(selector, tf.bvConst(value));
            Term cond = tf.mkAnd(no_match, hit);
            if (!cond.isFalse()) {
                SymbolicState taken = state;
                taken.pathCond = tf.mkAnd(state.pathCond, cond);
                taken.cameFrom = state.block;
                taken.block = target;
                taken.instIndex = 0;
                successors.push_back(std::move(taken));
            }
            no_match = tf.mkAnd(no_match, tf.mkNot(hit));
        }
        if (!no_match.isFalse()) {
            SymbolicState fallback = state;
            fallback.pathCond = tf.mkAnd(state.pathCond, no_match);
            fallback.cameFrom = state.block;
            fallback.block = inst.target1;
            fallback.instIndex = 0;
            if (!fallback.pathCond.isFalse())
                successors.push_back(std::move(fallback));
        }
        return successors;
      }

      case Opcode::Ret: {
        state.status = Status::Exited;
        if (!inst.operands.empty())
            state.result = evalValue(state, fn.name, inst.operands[0]);
        return {state};
      }

      case Opcode::Call: {
        state.status = Status::AtCall;
        state.callee = inst.callee;
        state.callSiteId = inst.callSiteId;
        for (const Value &operand : inst.operands) {
            state.callArgs.push_back(
                evalValue(state, fn.name, operand));
        }
        return {state};
      }

      case Opcode::Unreachable:
        return {errorState(ErrorKind::Unreachable, tf.trueTerm())};
    }
    KEQ_ASSERT(false, "step: unhandled opcode");
    return {};
}

} // namespace keq::llvmir
