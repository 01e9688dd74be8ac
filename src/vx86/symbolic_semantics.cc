#include "src/vx86/symbolic_semantics.h"

#include "src/sem/sync_point.h"
#include "src/support/diagnostics.h"

namespace keq::vx86 {

using sem::ErrorKind;
using sem::Status;
using sem::SymbolicState;
using smt::Term;
using support::ApInt;

namespace {

/** Bool term from an i1 flag term. */
Term
bitIsSet(smt::TermFactory &tf, Term bit)
{
    return tf.mkEq(bit, tf.bvConst(1, 1));
}

/** i1 term from a bool term. */
Term
boolToBit(smt::TermFactory &tf, Term cond)
{
    return tf.mkIte(cond, tf.bvConst(1, 1), tf.bvConst(1, 0));
}

bool
isFlagName(const std::string &name)
{
    return name == "zf" || name == "sf" || name == "cf" || name == "of";
}

} // namespace

SymbolicSemantics::SymbolicSemantics(const MModule &module,
                                     smt::TermFactory &factory,
                                     const mem::MemoryLayout &layout)
    : module_(module), factory_(factory), symMem_(factory, layout)
{}

const MFunction &
SymbolicSemantics::function(const std::string &name) const
{
    const MFunction *fn = module_.findFunction(name);
    KEQ_ASSERT(fn != nullptr, "unknown machine function " + name);
    return *fn;
}

unsigned
SymbolicSemantics::registerWidth(const std::string &function_name,
                                 const std::string &reg) const
{
    if (reg == sem::kReturnValueName)
        return function(function_name).retWidth;
    if (isFlagName(reg))
        return 1;
    if (reg.size() > 3 && reg.substr(0, 3) == "%vr") {
        size_t underscore = reg.rfind('_');
        KEQ_ASSERT(underscore != std::string::npos,
                   "virtual register without width: " + reg);
        return static_cast<unsigned>(
            std::stoul(reg.substr(underscore + 1)));
    }
    std::string canonical;
    unsigned width = 0;
    KEQ_ASSERT(decodePhysReg(reg, canonical, width),
               "unknown x86 register " + reg);
    return width;
}

void
SymbolicSemantics::bindRegister(SymbolicState &state,
                                const std::string &function_name,
                                const std::string &reg, Term value)
{
    KEQ_ASSERT(reg != sem::kReturnValueName,
               "cannot bind the return-value pseudo register");
    unsigned width = registerWidth(function_name, reg);
    KEQ_ASSERT(value.sort().isBitVec() && value.sort().width() == width,
               "bindRegister width mismatch for " + reg);
    if (isFlagName(reg)) {
        state.env[reg] = value;
        return;
    }
    std::string canonical;
    unsigned phys_width = 0;
    if (decodePhysReg(reg, canonical, phys_width)) {
        writeReg(state, MOperand::physReg(canonical, phys_width), value);
        return;
    }
    state.env[reg] = value; // virtual register
}

Term
SymbolicSemantics::readRegister(SymbolicState &state,
                                const std::string &function_name,
                                const std::string &reg)
{
    if (reg == sem::kReturnValueName) {
        KEQ_ASSERT(state.status == Status::Exited,
                   "$ret read on non-exited state");
        return state.result;
    }
    if (isFlagName(reg))
        return flag(state, reg.c_str());
    std::string canonical;
    unsigned width = 0;
    if (decodePhysReg(reg, canonical, width))
        return readOperand(state, MOperand::physReg(canonical, width));
    (void)function_name;
    return readOperand(
        state, MOperand::namedVirtReg(reg, registerWidth(function_name,
                                                         reg)));
}

Term
SymbolicSemantics::readOperand(SymbolicState &state, const MOperand &op)
{
    smt::TermFactory &tf = factory_;
    switch (op.kind) {
      case MOperand::Kind::Imm:
        return tf.bvConst(op.imm);
      case MOperand::Kind::VirtReg: {
        auto it = state.env.find(op.reg);
        if (it != state.env.end())
            return it->second;
        Term fresh =
            tf.freshVar("havoc." + op.reg, smt::Sort::bitVec(op.width));
        state.env[op.reg] = fresh;
        return fresh;
      }
      case MOperand::Kind::PhysReg: {
        auto it = state.env.find(op.reg);
        Term full;
        if (it != state.env.end()) {
            full = it->second;
        } else {
            full = tf.freshVar("havoc." + op.reg, smt::Sort::bitVec(64));
            state.env[op.reg] = full;
        }
        return tf.trunc(full, op.width);
      }
      case MOperand::Kind::None:
        break;
    }
    KEQ_ASSERT(false, "readOperand: bad operand");
    return {};
}

void
SymbolicSemantics::writeReg(SymbolicState &state, const MOperand &op,
                            Term value)
{
    smt::TermFactory &tf = factory_;
    KEQ_ASSERT(value.sort().isBitVec() &&
                   value.sort().width() == op.width,
               "writeReg width mismatch");
    if (op.kind == MOperand::Kind::VirtReg) {
        state.env[op.reg] = value;
        return;
    }
    KEQ_ASSERT(op.kind == MOperand::Kind::PhysReg, "writeReg: not a reg");
    if (op.width == 64) {
        state.env[op.reg] = value;
        return;
    }
    if (op.width == 32) {
        // x86-64: 32-bit writes zero the upper half.
        state.env[op.reg] = tf.zext(value, 64);
        return;
    }
    // 16/8-bit writes merge into the preserved upper bits.
    Term old = readOperand(state, MOperand::physReg(op.reg, 64));
    Term upper = tf.extract(old, 63, op.width);
    state.env[op.reg] = tf.concat(upper, value);
}

Term
SymbolicSemantics::evalAddress(SymbolicState &state, const MFunction &fn,
                               const MAddress &addr)
{
    smt::TermFactory &tf = factory_;
    Term base;
    switch (addr.baseKind) {
      case MAddress::BaseKind::Reg: {
        Term reg = readOperand(state, addr.baseReg);
        base = reg.sort().width() < 64 ? tf.zext(reg, 64) : reg;
        break;
      }
      case MAddress::BaseKind::Global: {
        const mem::MemoryObject *object =
            symMem_.layout().find(addr.global);
        KEQ_ASSERT(object != nullptr, "unknown global " + addr.global);
        base = tf.bvConst(64, object->base);
        break;
      }
      case MAddress::BaseKind::FrameIndex: {
        KEQ_ASSERT(addr.frameIndex >= 0 &&
                       static_cast<size_t>(addr.frameIndex) <
                           fn.frame.size(),
                   "frame index out of range");
        const mem::MemoryObject *object = symMem_.layout().find(
            fn.frame[static_cast<size_t>(addr.frameIndex)].slotName);
        KEQ_ASSERT(object != nullptr, "frame slot missing from layout");
        base = tf.bvConst(64, object->base);
        break;
      }
      case MAddress::BaseKind::None:
        base = tf.bvConst(64, 0);
        break;
    }
    if (addr.hasIndex()) {
        Term index = readOperand(state, addr.indexReg);
        Term wide = index.sort().width() < 64 ? tf.zext(index, 64) : index;
        base = tf.bvAdd(base,
                        tf.bvMul(wide, tf.bvConst(64, addr.scale)));
    }
    if (addr.disp != 0) {
        base = tf.bvAdd(
            base, tf.bvConst(64, static_cast<uint64_t>(addr.disp)));
    }
    return base;
}

Term
SymbolicSemantics::flag(SymbolicState &state, const char *name)
{
    auto it = state.env.find(name);
    if (it != state.env.end())
        return it->second;
    Term fresh = factory_.freshVar(std::string("havoc.") + name,
                                   smt::Sort::bitVec(1));
    state.env[name] = fresh;
    return fresh;
}

void
SymbolicSemantics::setFlag(SymbolicState &state, const char *name,
                           Term bit)
{
    state.env[name] = bit;
}

void
SymbolicSemantics::havocFlag(SymbolicState &state, const char *name)
{
    state.env[name] = factory_.freshVar(std::string("undef.") + name,
                                        smt::Sort::bitVec(1));
    clearCompareShadow(state);
}

void
SymbolicSemantics::clearCompareShadow(SymbolicState &state)
{
    state.env.erase("cc.sub.lhs");
    state.env.erase("cc.sub.rhs");
}

void
SymbolicSemantics::setCompareShadow(SymbolicState &state, Term lhs,
                                    Term rhs)
{
    // After CMP/SUB(a, b), the signed condition codes satisfy the
    // textbook identities  L <=> sf != of <=> a <s b  (etc.). Recording
    // the operands lets condTerm() build bvslt(a, b) directly instead of
    // the sign/overflow-bit formula, which keeps the two languages' path
    // conditions hash-consed to the same term and spares Z3 the
    // expensive bit-level reasoning (pathological with multiplication in
    // the operands).
    state.env["cc.sub.lhs"] = lhs;
    state.env["cc.sub.rhs"] = rhs;
}

void
SymbolicSemantics::setArithFlags(SymbolicState &state, Term result,
                                 Term cf, Term of)
{
    smt::TermFactory &tf = factory_;
    unsigned w = result.sort().width();
    setFlag(state, "zf",
            boolToBit(tf, tf.mkEq(result, tf.bvConst(w, 0))));
    setFlag(state, "sf", tf.extract(result, w - 1, w - 1));
    setFlag(state, "cf", cf);
    setFlag(state, "of", of);
    clearCompareShadow(state);
}

Term
SymbolicSemantics::condTerm(SymbolicState &state, CondCode cc)
{
    smt::TermFactory &tf = factory_;
    // Signed conditions after a CMP/SUB fold to the comparison predicate
    // via the recorded shadow operands (see setCompareShadow).
    auto lhs_it = state.env.find("cc.sub.lhs");
    auto rhs_it = state.env.find("cc.sub.rhs");
    if (lhs_it != state.env.end() && rhs_it != state.env.end()) {
        Term a = lhs_it->second;
        Term b = rhs_it->second;
        switch (cc) {
          case CondCode::E: return tf.mkEq(a, b);
          case CondCode::NE: return tf.mkNot(tf.mkEq(a, b));
          case CondCode::B: return tf.bvUlt(a, b);
          case CondCode::AE: return tf.bvUge(a, b);
          case CondCode::BE: return tf.bvUle(a, b);
          case CondCode::A: return tf.bvUgt(a, b);
          case CondCode::L: return tf.bvSlt(a, b);
          case CondCode::GE: return tf.bvSge(a, b);
          case CondCode::LE: return tf.bvSle(a, b);
          case CondCode::G: return tf.bvSgt(a, b);
          default:
            break; // S/NS/O/NO genuinely read the flag bits
        }
    }
    Term zf = bitIsSet(tf, flag(state, "zf"));
    Term sf = bitIsSet(tf, flag(state, "sf"));
    Term cf = bitIsSet(tf, flag(state, "cf"));
    Term of = bitIsSet(tf, flag(state, "of"));
    switch (cc) {
      case CondCode::E: return zf;
      case CondCode::NE: return tf.mkNot(zf);
      case CondCode::B: return cf;
      case CondCode::AE: return tf.mkNot(cf);
      case CondCode::BE: return tf.mkOr(cf, zf);
      case CondCode::A: return tf.mkNot(tf.mkOr(cf, zf));
      case CondCode::L: return tf.mkNot(tf.mkIff(sf, of));
      case CondCode::GE: return tf.mkIff(sf, of);
      case CondCode::LE:
        return tf.mkOr(zf, tf.mkNot(tf.mkIff(sf, of)));
      case CondCode::G:
        return tf.mkAnd(tf.mkNot(zf), tf.mkIff(sf, of));
      case CondCode::S: return sf;
      case CondCode::NS: return tf.mkNot(sf);
      case CondCode::O: return of;
      case CondCode::NO: return tf.mkNot(of);
    }
    KEQ_ASSERT(false, "condTerm: bad cc");
    return {};
}

sem::SymbolicState
SymbolicSemantics::makeState(const sem::StateSeed &seed,
                             std::map<std::string, smt::Term> env,
                             smt::Term memory, smt::Term path_cond)
{
    const MFunction &fn = function(seed.function);
    SymbolicState state;
    state.status = Status::Running;
    state.function = seed.function;
    state.block = seed.block.empty() ? fn.blocks.front().name : seed.block;
    state.cameFrom = seed.cameFrom;
    state.instIndex = 0;
    state.env = std::move(env);
    state.memory = memory;
    state.pathCond = path_cond;

    if (!seed.afterCallSiteId.empty()) {
        bool found = false;
        for (const MBasicBlock &block : fn.blocks) {
            for (size_t i = 0; i < block.insts.size(); ++i) {
                const MInst &inst = block.insts[i];
                if (inst.op == MOpcode::CALL &&
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

std::vector<sem::SymbolicState>
SymbolicSemantics::step(const sem::SymbolicState &state_in)
{
    KEQ_ASSERT(state_in.status == Status::Running,
               "step on non-running state");
    SymbolicState state = state_in;
    smt::TermFactory &tf = factory_;
    const MFunction &fn = function(state.function);
    const MBasicBlock *block = fn.findBlock(state.block);
    KEQ_ASSERT(block != nullptr, "unknown block " + state.block);
    KEQ_ASSERT(state.instIndex < block->insts.size(),
               "fell off machine block " + state.block);
    const MInst &inst = block->insts[state.instIndex];

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
      case MOpcode::PHI: {
        // Execute the block's whole PHI group in one parallel step.
        std::map<std::string, Term> updates;
        size_t i = state.instIndex;
        for (; i < block->insts.size() &&
               block->insts[i].op == MOpcode::PHI;
             ++i) {
            const MInst &phi = block->insts[i];
            bool found = false;
            for (const auto &[value, pred] : phi.incoming) {
                if (pred == state.cameFrom) {
                    updates[phi.ops[0].reg] = readOperand(state, value);
                    found = true;
                    break;
                }
            }
            KEQ_ASSERT(found, "PHI without incoming for " +
                                  state.cameFrom);
        }
        for (auto &[name, term] : updates)
            state.env[name] = term;
        state.instIndex = i;
        return {state};
      }

      case MOpcode::COPY: {
        Term src = readOperand(state, inst.ops[1]);
        // COPY may narrow (sub-register copy); widening must use MOVZX/SX.
        KEQ_ASSERT(src.sort().width() >= inst.ops[0].width,
                   "COPY cannot widen");
        writeReg(state, inst.ops[0], tf.trunc(src, inst.ops[0].width));
        return {advance(state)};
      }

      case MOpcode::MOVri: {
        writeReg(state, inst.ops[0], readOperand(state, inst.ops[1]));
        return {advance(state)};
      }

      case MOpcode::MOVZXrr: {
        Term src = readOperand(state, inst.ops[1]);
        writeReg(state, inst.ops[0], tf.zext(src, inst.ops[0].width));
        return {advance(state)};
      }
      case MOpcode::MOVSXrr: {
        Term src = readOperand(state, inst.ops[1]);
        writeReg(state, inst.ops[0], tf.sext(src, inst.ops[0].width));
        return {advance(state)};
      }

      case MOpcode::LEA: {
        Term address = evalAddress(state, fn, inst.addr);
        writeReg(state, inst.ops[0],
                 tf.trunc(address, inst.ops[0].width));
        return {advance(state)};
      }

      case MOpcode::MOVrm:
      case MOpcode::MOVZXrm:
      case MOpcode::MOVSXrm: {
        Term address = evalAddress(state, fn, inst.addr);
        unsigned mem_bits = inst.width;
        unsigned size = mem_bits / 8;
        mem::AccessCheck check = symMem_.checkAccess(address, size);
        std::vector<SymbolicState> successors;
        if (!check.inBounds.isTrue()) {
            successors.push_back(errorState(
                ErrorKind::OutOfBounds, tf.mkNot(check.inBounds)));
        }
        if (!check.inBounds.isFalse()) {
            Term loaded = symMem_.read(state.memory, address, size);
            Term value = loaded;
            if (inst.op == MOpcode::MOVZXrm)
                value = tf.zext(loaded, inst.ops[0].width);
            else if (inst.op == MOpcode::MOVSXrm)
                value = tf.sext(loaded, inst.ops[0].width);
            writeReg(state, inst.ops[0], value);
            state.pathCond = tf.mkAnd(state.pathCond, check.inBounds);
            successors.push_back(advance(state));
        }
        return successors;
      }

      case MOpcode::MOVmr:
      case MOpcode::MOVmi: {
        Term address = evalAddress(state, fn, inst.addr);
        Term value = readOperand(state, inst.ops[0]);
        unsigned size = inst.width / 8;
        mem::AccessCheck check = symMem_.checkAccess(address, size);
        std::vector<SymbolicState> successors;
        if (!check.inBounds.isTrue()) {
            successors.push_back(errorState(
                ErrorKind::OutOfBounds, tf.mkNot(check.inBounds)));
        }
        if (!check.inBounds.isFalse()) {
            state.memory =
                symMem_.write(state.memory, address, value, size);
            state.pathCond = tf.mkAnd(state.pathCond, check.inBounds);
            successors.push_back(advance(state));
        }
        return successors;
      }

      case MOpcode::ADDrr:
      case MOpcode::ADDri:
      case MOpcode::SUBrr:
      case MOpcode::SUBri: {
        Term a = readOperand(state, inst.ops[1]);
        Term b = readOperand(state, inst.ops[2]);
        bool is_add =
            inst.op == MOpcode::ADDrr || inst.op == MOpcode::ADDri;
        unsigned w = a.sort().width();
        Term r = is_add ? tf.bvAdd(a, b) : tf.bvSub(a, b);
        // Carry/overflow without widening:
        //  ADD: cf = r <u a;          of = sign((a^r) & (b^r)).
        //  SUB: cf = a <u b;          of = sign((a^b) & (a^r)).
        Term cf = is_add ? boolToBit(tf, tf.bvUlt(r, a))
                         : boolToBit(tf, tf.bvUlt(a, b));
        Term of_src = is_add
                          ? tf.bvAnd(tf.bvXor(a, r), tf.bvXor(b, r))
                          : tf.bvAnd(tf.bvXor(a, b), tf.bvXor(a, r));
        Term of = tf.extract(of_src, w - 1, w - 1);
        writeReg(state, inst.ops[0], r);
        setArithFlags(state, r, cf, of);
        if (!is_add)
            setCompareShadow(state, a, b);
        return {advance(state)};
      }

      case MOpcode::IMULrr:
      case MOpcode::IMULri: {
        Term a = readOperand(state, inst.ops[1]);
        Term b = readOperand(state, inst.ops[2]);
        Term r = tf.bvMul(a, b);
        writeReg(state, inst.ops[0], r);
        // x86 leaves zf/sf undefined after imul; cf/of signal overflow,
        // which our lowering never consumes — havoc all four.
        havocFlag(state, "zf");
        havocFlag(state, "sf");
        havocFlag(state, "cf");
        havocFlag(state, "of");
        return {advance(state)};
      }

      case MOpcode::ANDrr:
      case MOpcode::ANDri:
      case MOpcode::ORrr:
      case MOpcode::ORri:
      case MOpcode::XORrr:
      case MOpcode::XORri: {
        Term a = readOperand(state, inst.ops[1]);
        Term b = readOperand(state, inst.ops[2]);
        Term r;
        switch (inst.op) {
          case MOpcode::ANDrr:
          case MOpcode::ANDri:
            r = tf.bvAnd(a, b);
            break;
          case MOpcode::ORrr:
          case MOpcode::ORri:
            r = tf.bvOr(a, b);
            break;
          default:
            r = tf.bvXor(a, b);
            break;
        }
        writeReg(state, inst.ops[0], r);
        setArithFlags(state, r, tf.bvConst(1, 0), tf.bvConst(1, 0));
        return {advance(state)};
      }

      case MOpcode::SHLri:
      case MOpcode::SHRri:
      case MOpcode::SARri:
      case MOpcode::SHLrr:
      case MOpcode::SHRrr:
      case MOpcode::SARrr: {
        Term a = readOperand(state, inst.ops[1]);
        Term count = readOperand(state, inst.ops[2]);
        unsigned w = a.sort().width();
        // x86 masks the count to 5 bits (6 for 64-bit operands).
        unsigned mask = w == 64 ? 63 : 31;
        Term masked = tf.bvAnd(
            count.sort().width() == w ? count : tf.zext(count, w),
            tf.bvConst(w, mask));
        Term r;
        if (inst.op == MOpcode::SHLri || inst.op == MOpcode::SHLrr)
            r = tf.bvShl(a, masked);
        else if (inst.op == MOpcode::SHRri || inst.op == MOpcode::SHRrr)
            r = tf.bvLShr(a, masked);
        else
            r = tf.bvAShr(a, masked);
        writeReg(state, inst.ops[0], r);
        // zf/sf are defined (for nonzero counts; our lowering only
        // branches after an explicit CMP/TEST anyway); cf/of havoc.
        setFlag(state, "zf",
                boolToBit(tf, tf.mkEq(r, tf.bvConst(w, 0))));
        setFlag(state, "sf", tf.extract(r, w - 1, w - 1));
        havocFlag(state, "cf");
        havocFlag(state, "of");
        return {advance(state)};
      }

      case MOpcode::NEGr: {
        Term a = readOperand(state, inst.ops[1]);
        unsigned w = a.sort().width();
        Term r = tf.bvNeg(a);
        writeReg(state, inst.ops[0], r);
        Term cf = boolToBit(
            tf, tf.mkNot(tf.mkEq(a, tf.bvConst(w, 0))));
        Term of = boolToBit(
            tf, tf.mkEq(a, tf.bvConst(ApInt::signedMin(w))));
        setArithFlags(state, r, cf, of);
        return {advance(state)};
      }

      case MOpcode::NOTr: {
        Term a = readOperand(state, inst.ops[1]);
        writeReg(state, inst.ops[0], tf.bvNot(a));
        // NOT does not touch the flags.
        return {advance(state)};
      }

      case MOpcode::INCr:
      case MOpcode::DECr: {
        Term a = readOperand(state, inst.ops[1]);
        unsigned w = a.sort().width();
        Term one = tf.bvConst(w, 1);
        bool is_inc = inst.op == MOpcode::INCr;
        Term r = is_inc ? tf.bvAdd(a, one) : tf.bvSub(a, one);
        Term of_src = is_inc
                          ? tf.bvAnd(tf.bvXor(a, r), tf.bvXor(one, r))
                          : tf.bvAnd(tf.bvXor(a, one), tf.bvXor(a, r));
        writeReg(state, inst.ops[0], r);
        // INC/DEC preserve cf.
        Term cf = flag(state, "cf");
        setArithFlags(state, r, cf, tf.extract(of_src, w - 1, w - 1));
        return {advance(state)};
      }

      case MOpcode::CDQ: {
        unsigned w = inst.width;
        Term a = readOperand(state, MOperand::physReg("rax", w));
        Term sign = tf.extract(a, w - 1, w - 1);
        writeReg(state, MOperand::physReg("rdx", w), tf.sext(sign, w));
        return {advance(state)};
      }

      case MOpcode::DIV:
      case MOpcode::IDIV: {
        unsigned w = inst.width;
        KEQ_ASSERT(w <= 32, "division wider than 32 bits unsupported");
        Term divisor = readOperand(state, inst.ops[0]);
        Term lo = readOperand(state, MOperand::physReg("rax", w));
        Term hi = readOperand(state, MOperand::physReg("rdx", w));
        bool is_signed = inst.op == MOpcode::IDIV;
        Term div_zero = tf.mkEq(divisor, tf.bvConst(w, 0));
        // rdx:rax is the extension of rax when rdx holds what CDQ/CQO
        // (IDIV) or zeroing (DIV) writes. Rebuilding that high half
        // from lo and comparing ids is exact under every fold, since
        // the factory hash-conses: literals, extended values and
        // loaded-byte concats alike. Keeping those divisions at width
        // w spares the SMT solver the 2w-bit division the paper notes
        // Z3 struggles with.
        Term extended_hi = is_signed
                               ? tf.sext(tf.extract(lo, w - 1, w - 1), w)
                               : tf.bvConst(w, 0);
        Term narrow, rem_narrow, fault;
        if (hi == extended_hi && is_signed) {
            // quotient == sdiv(lo, divisor) at width w exactly, and #DE
            // fires iff divisor == 0 or lo == INT_MIN && divisor == -1
            // (the only non-fitting quotient).
            narrow = tf.bvSDiv(lo, divisor);
            rem_narrow = tf.bvSRem(lo, divisor);
            Term overflow = tf.mkAnd(
                tf.mkEq(lo, tf.bvConst(ApInt::signedMin(w))),
                tf.mkEq(divisor, tf.bvConst(ApInt::allOnes(w))));
            fault = tf.mkOr(div_zero, overflow);
        } else if (hi == extended_hi) {
            // rdx is zero: the quotient always fits.
            narrow = tf.bvUDiv(lo, divisor);
            rem_narrow = tf.bvURem(lo, divisor);
            fault = div_zero;
        } else {
            // General rdx:rax dividend.
            Term dividend = tf.concat(hi, lo); // 2w bits
            Term wide_divisor = is_signed ? tf.sext(divisor, 2 * w)
                                          : tf.zext(divisor, 2 * w);
            Term quotient = is_signed
                                ? tf.bvSDiv(dividend, wide_divisor)
                                : tf.bvUDiv(dividend, wide_divisor);
            Term remainder = is_signed
                                 ? tf.bvSRem(dividend, wide_divisor)
                                 : tf.bvURem(dividend, wide_divisor);
            narrow = tf.trunc(quotient, w);
            rem_narrow = tf.trunc(remainder, w);
            // #DE also fires when the quotient does not fit.
            Term fits = is_signed
                            ? tf.mkEq(tf.sext(narrow, 2 * w), quotient)
                            : tf.mkEq(tf.zext(narrow, 2 * w), quotient);
            fault = tf.mkOr(div_zero, tf.mkNot(fits));
        }
        std::vector<SymbolicState> successors;
        if (!fault.isFalse()) {
            successors.push_back(
                errorState(ErrorKind::DivByZero, fault));
        }
        Term ok = tf.mkNot(fault);
        writeReg(state, MOperand::physReg("rax", w), narrow);
        writeReg(state, MOperand::physReg("rdx", w), rem_narrow);
        havocFlag(state, "zf");
        havocFlag(state, "sf");
        havocFlag(state, "cf");
        havocFlag(state, "of");
        state.pathCond = tf.mkAnd(state.pathCond, ok);
        if (!state.pathCond.isFalse())
            successors.push_back(advance(state));
        return successors;
      }

      case MOpcode::CMPrr:
      case MOpcode::CMPri: {
        Term a = readOperand(state, inst.ops[0]);
        Term b = readOperand(state, inst.ops[1]);
        unsigned w = a.sort().width();
        Term r = tf.bvSub(a, b);
        Term cf = boolToBit(tf, tf.bvUlt(a, b));
        Term of = tf.extract(
            tf.bvAnd(tf.bvXor(a, b), tf.bvXor(a, r)), w - 1, w - 1);
        setArithFlags(state, r, cf, of);
        setCompareShadow(state, a, b);
        return {advance(state)};
      }

      case MOpcode::TESTrr: {
        Term a = readOperand(state, inst.ops[0]);
        Term b = readOperand(state, inst.ops[1]);
        Term r = tf.bvAnd(a, b);
        setArithFlags(state, r, tf.bvConst(1, 0), tf.bvConst(1, 0));
        return {advance(state)};
      }

      case MOpcode::SETcc: {
        Term cond = condTerm(state, inst.cc);
        writeReg(state, inst.ops[0],
                 tf.mkIte(cond, tf.bvConst(8, 1), tf.bvConst(8, 0)));
        return {advance(state)};
      }

      case MOpcode::JCC: {
        Term cond = condTerm(state, inst.cc);
        std::vector<SymbolicState> successors;
        if (!cond.isFalse()) {
            SymbolicState taken = state;
            taken.pathCond = tf.mkAnd(state.pathCond, cond);
            taken.cameFrom = state.block;
            taken.block = inst.target;
            taken.instIndex = 0;
            successors.push_back(std::move(taken));
        }
        if (!cond.isTrue()) {
            SymbolicState fall = state;
            fall.pathCond = tf.mkAnd(state.pathCond, tf.mkNot(cond));
            ++fall.instIndex;
            successors.push_back(std::move(fall));
        }
        return successors;
      }

      case MOpcode::JMP: {
        state.cameFrom = state.block;
        state.block = inst.target;
        state.instIndex = 0;
        return {state};
      }

      case MOpcode::CALL: {
        state.status = Status::AtCall;
        state.callee = inst.target;
        state.callSiteId = inst.callSiteId;
        for (const MOperand &arg : inst.callArgs)
            state.callArgs.push_back(readOperand(state, arg));
        return {state};
      }

      case MOpcode::RET: {
        state.status = Status::Exited;
        if (fn.retWidth > 0) {
            state.result = readOperand(
                state, MOperand::physReg("rax", fn.retWidth));
        }
        return {state};
      }

      case MOpcode::UD2:
        return {errorState(ErrorKind::Unreachable, tf.trueTerm())};
    }
    KEQ_ASSERT(false, "step: unhandled machine opcode");
    return {};
}

} // namespace keq::vx86
