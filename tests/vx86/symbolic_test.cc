/** @file Symbolic Virtual x86 semantics tests. */

#include <gtest/gtest.h>

#include <string>

#include "src/vx86/parser.h"
#include "src/sem/sync_point.h"
#include "src/smt/evaluator.h"
#include "src/vx86/symbolic_semantics.h"

namespace keq::vx86 {
namespace {

using sem::Status;
using sem::SymbolicState;
using smt::Term;

class Vx86SymbolicFixture
{
  public:
    explicit Vx86SymbolicFixture(const char *source,
                                 std::function<void(mem::MemoryLayout &)>
                                     layout_setup = {})
        : module_(parseMModule(source))
    {
        if (layout_setup)
            layout_setup(layout_);
        sem_ = std::make_unique<SymbolicSemantics>(module_, tf_, layout_);
    }

    SymbolicState
    entryState(const std::string &fn)
    {
        return sem_->makeState({fn, "", "", ""}, {},
                               tf_.var("mem", smt::Sort::memArray()),
                               tf_.trueTerm());
    }

    std::vector<SymbolicState>
    runToEnd(SymbolicState seed, size_t max_steps = 2000)
    {
        std::vector<SymbolicState> work{std::move(seed)};
        std::vector<SymbolicState> done;
        size_t steps = 0;
        while (!work.empty()) {
            if (++steps > max_steps) {
                ADD_FAILURE() << "step budget exceeded";
                break;
            }
            SymbolicState state = std::move(work.back());
            work.pop_back();
            if (state.status != Status::Running) {
                done.push_back(std::move(state));
                continue;
            }
            for (SymbolicState &succ : sem_->step(state))
                work.push_back(std::move(succ));
        }
        return done;
    }

    MModule module_;
    smt::TermFactory tf_;
    mem::MemoryLayout layout_;
    std::unique_ptr<SymbolicSemantics> sem_;
};

TEST(Vx86SymbolicTest, CopyChainProducesInputTerm)
{
    Vx86SymbolicFixture fx(R"(function @f ret i32 {
.LBB0:
  %vr0_32 = COPY edi
  %vr1_32 = ADD32ri %vr0_32, $1
  eax = COPY %vr1_32
  RET
}
)");
    SymbolicState seed = fx.entryState("@f");
    fx.sem_->bindRegister(seed, "@f", "edi",
                          fx.tf_.var("a", smt::Sort::bitVec(32)));
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));
    ASSERT_EQ(finals.size(), 1u);
    EXPECT_EQ(finals[0].status, Status::Exited);
    EXPECT_EQ(finals[0].result,
              fx.tf_.bvAdd(fx.tf_.var("a", smt::Sort::bitVec(32)),
                           fx.tf_.bvConst(32, 1)));
}

TEST(Vx86SymbolicTest, ThirtyTwoBitWriteZeroExtendsInRegisterFile)
{
    Vx86SymbolicFixture fx(R"(function @f ret i64 {
.LBB0:
  rax = MOV64ri $-1
  eax = MOV32ri $7
  RET
}
)");
    std::vector<SymbolicState> finals = fx.runToEnd(fx.entryState("@f"));
    ASSERT_EQ(finals.size(), 1u);
    EXPECT_EQ(finals[0].result, fx.tf_.bvConst(64, 7));
}

TEST(Vx86SymbolicTest, NarrowWriteMergesSymbolically)
{
    Vx86SymbolicFixture fx(R"(function @f ret i64 {
.LBB0:
  al = COPY dil
  RET
}
)");
    SymbolicState seed = fx.entryState("@f");
    fx.sem_->bindRegister(seed, "@f", "rax",
                          fx.tf_.bvConst(64, 0xAABBCCDD11223300ull));
    fx.sem_->bindRegister(seed, "@f", "rdi", fx.tf_.bvConst(64, 0x42));
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));
    ASSERT_EQ(finals.size(), 1u);
    EXPECT_EQ(finals[0].result,
              fx.tf_.bvConst(64, 0xAABBCCDD11223342ull));
}

TEST(Vx86SymbolicTest, CmpJccSplitsOnComparison)
{
    Vx86SymbolicFixture fx(R"(function @f ret i32 {
.LBB0:
  %vr0_32 = COPY edi
  %vr1_32 = COPY esi
  CMP32rr %vr0_32, %vr1_32
  Jb .LBB1
  JMP .LBB2
.LBB1:
  eax = MOV32ri $1
  RET
.LBB2:
  eax = MOV32ri $0
  RET
}
)");
    SymbolicState seed = fx.entryState("@f");
    Term a = fx.tf_.var("a", smt::Sort::bitVec(32));
    Term b = fx.tf_.var("b", smt::Sort::bitVec(32));
    fx.sem_->bindRegister(seed, "@f", "edi", a);
    fx.sem_->bindRegister(seed, "@f", "esi", b);
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));
    ASSERT_EQ(finals.size(), 2u);
    // The carry-flag encoding folds back to a plain bvult predicate —
    // the exact term the LLVM side would produce.
    Term expected = fx.tf_.bvUlt(a, b);
    bool found_taken = false;
    for (const SymbolicState &state : finals) {
        if (state.pathCond == expected)
            found_taken = true;
    }
    EXPECT_TRUE(found_taken)
        << "taken-path condition did not normalize to bvult";
}

TEST(Vx86SymbolicTest, SignedConditionFoldsToSlt)
{
    Vx86SymbolicFixture fx(R"(function @f ret i32 {
.LBB0:
  %vr0_32 = COPY edi
  %vr1_32 = COPY esi
  CMP32rr %vr0_32, %vr1_32
  Jl .LBB1
  JMP .LBB2
.LBB1:
  eax = MOV32ri $1
  RET
.LBB2:
  eax = MOV32ri $0
  RET
}
)");
    SymbolicState seed = fx.entryState("@f");
    Term a = fx.tf_.var("a", smt::Sort::bitVec(32));
    Term b = fx.tf_.var("b", smt::Sort::bitVec(32));
    fx.sem_->bindRegister(seed, "@f", "edi", a);
    fx.sem_->bindRegister(seed, "@f", "esi", b);
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));
    ASSERT_EQ(finals.size(), 2u);
    // Jl reads sf != of; on concrete-free symbolic operands this is a
    // genuine formula — check it is at least sat-equivalent by
    // structure: one branch condition must be the negation of the other.
    EXPECT_EQ(finals[0].pathCond, fx.tf_.mkNot(finals[1].pathCond));
}

TEST(Vx86SymbolicTest, FrameAndGlobalAddressing)
{
    Vx86SymbolicFixture fx(
        R"(function @mem ret i32 {
  frame @mem/%slot 4
.LBB0:
  %vr0_32 = COPY edi
  MOV32mr [fi0], %vr0_32
  %vr1_32 = MOV32rm [fi0]
  eax = COPY %vr1_32
  RET
}
)",
        [](mem::MemoryLayout &layout) {
            layout.addStackSlot("@mem", "%slot", 4);
        });
    SymbolicState seed = fx.entryState("@mem");
    Term v = fx.tf_.var("v", smt::Sort::bitVec(32));
    fx.sem_->bindRegister(seed, "@mem", "edi", v);
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));
    ASSERT_EQ(finals.size(), 1u);
    // Store-to-load forwarding through the concrete frame address.
    EXPECT_EQ(finals[0].result, v);
}

TEST(Vx86SymbolicTest, OobSplitsIntoErrorState)
{
    Vx86SymbolicFixture fx(
        R"(function @bad ret i32 {
.LBB0:
  %vr0_64 = COPY rdi
  %vr1_32 = MOV32rm [%vr0_64]
  eax = COPY %vr1_32
  RET
}
)",
        [](mem::MemoryLayout &layout) { layout.addGlobal("@g", 8); });
    SymbolicState seed = fx.entryState("@bad");
    fx.sem_->bindRegister(seed, "@bad", "rdi",
                          fx.tf_.var("p", smt::Sort::bitVec(64)));
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));
    ASSERT_EQ(finals.size(), 2u);
    int errors = 0;
    for (const SymbolicState &state : finals) {
        if (state.status == Status::Error) {
            ++errors;
            EXPECT_EQ(state.errorKind, sem::ErrorKind::OutOfBounds);
        }
    }
    EXPECT_EQ(errors, 1);
}

TEST(Vx86SymbolicTest, DivisionEmitsFaultBranch)
{
    Vx86SymbolicFixture fx(R"(function @d ret i32 {
.LBB0:
  %vr0_32 = COPY edi
  %vr1_32 = COPY esi
  eax = COPY %vr0_32
  CDQ
  IDIV32 %vr1_32
  %vr2_32 = COPY eax
  eax = COPY %vr2_32
  RET
}
)");
    SymbolicState seed = fx.entryState("@d");
    fx.sem_->bindRegister(seed, "@d", "edi",
                          fx.tf_.var("a", smt::Sort::bitVec(32)));
    fx.sem_->bindRegister(seed, "@d", "esi",
                          fx.tf_.var("b", smt::Sort::bitVec(32)));
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));
    // Fault branch plus normal exit.
    ASSERT_EQ(finals.size(), 2u);
    int errors = 0;
    for (const SymbolicState &state : finals) {
        if (state.status != Status::Error)
            continue;
        ++errors;
        EXPECT_EQ(state.errorKind, sem::ErrorKind::DivByZero);
        // The fault is taken exactly when the named divisor is zero.
        auto faultsAt = [&](uint64_t b) {
            smt::Assignment env;
            env.setBv("a", support::ApInt(32, 7));
            env.setBv("b", support::ApInt(32, b));
            return smt::Evaluator(env).evalBool(state.pathCond);
        };
        EXPECT_TRUE(faultsAt(0));
        EXPECT_FALSE(faultsAt(3));
    }
    EXPECT_EQ(errors, 1);
}

/** Runs @p fn with y bound to edi; splits its finals into the exit and
 *  the #DE error state. */
void
runDivision(Vx86SymbolicFixture &fx, const std::string &fn, Term y,
            SymbolicState *exited, SymbolicState *fault)
{
    SymbolicState seed = fx.entryState(fn);
    fx.sem_->bindRegister(seed, fn, "edi", y);
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));
    ASSERT_EQ(finals.size(), 2u);
    for (SymbolicState &state : finals) {
        if (state.status == Status::Error) {
            EXPECT_EQ(state.errorKind, sem::ErrorKind::DivByZero);
            *fault = std::move(state);
        } else {
            EXPECT_EQ(state.status, Status::Exited);
            *exited = std::move(state);
        }
    }
    ASSERT_TRUE(fault->pathCond);
    ASSERT_TRUE(exited->result);
}

TEST(Vx86SymbolicTest, ConstantDividendUnsignedDivisionStaysNarrow)
{
    // concat(edx = 0, eax = 4300) folds to a 64-bit literal; the
    // division must still be the 32-bit one with no fits check.
    Vx86SymbolicFixture fx(R"(function @u ret i32 {
.LBB0:
  %vr0_32 = COPY edi
  eax = MOV32ri $4300
  edx = MOV32ri $0
  DIV32 %vr0_32
  %vr1_32 = COPY eax
  eax = COPY %vr1_32
  RET
}
)");
    smt::TermFactory &tf = fx.tf_;
    Term y = tf.var("y", smt::Sort::bitVec(32));
    SymbolicState exited, fault;
    ASSERT_NO_FATAL_FAILURE(runDivision(fx, "@u", y, &exited, &fault));
    EXPECT_EQ(exited.result, tf.bvUDiv(tf.bvConst(32, 4300), y))
        << exited.result.toString();
    EXPECT_EQ(fault.pathCond, tf.mkEq(y, tf.bvConst(32, 0)))
        << fault.pathCond.toString();
}

TEST(Vx86SymbolicTest, ConstantDividendSignedDivisionStaysNarrow)
{
    // CDQ of the constant INT_MIN folds rdx:rax to a literal too; the
    // fault is divisor == 0 or the INT_MIN / -1 overflow.
    Vx86SymbolicFixture fx(R"(function @s ret i32 {
.LBB0:
  %vr0_32 = COPY edi
  eax = MOV32ri $-2147483648
  CDQ
  IDIV32 %vr0_32
  %vr1_32 = COPY eax
  eax = COPY %vr1_32
  RET
}
)");
    smt::TermFactory &tf = fx.tf_;
    Term y = tf.var("y", smt::Sort::bitVec(32));
    Term int_min = tf.bvConst(support::ApInt::signedMin(32));
    SymbolicState exited, fault;
    ASSERT_NO_FATAL_FAILURE(runDivision(fx, "@s", y, &exited, &fault));
    EXPECT_EQ(exited.result, tf.bvSDiv(int_min, y))
        << exited.result.toString();
    EXPECT_EQ(fault.pathCond,
              tf.mkOr(tf.mkEq(y, tf.bvConst(32, 0)),
                      tf.mkEq(y, tf.bvConst(support::ApInt::allOnes(32)))))
        << fault.pathCond.toString();
}

TEST(Vx86SymbolicTest, LoadedDividendAfterCdqStaysNarrow)
{
    // A loaded i32 is a concat of bytes, so CDQ's sign bit folds to
    // bit 7 of the top byte and rdx:rax is no sext node. Rebuilding the
    // high half from eax still recognizes the extension: srem and sdiv
    // stay 32-bit, with the narrow fault condition.
    auto division = [](const std::string &name, const char *result) {
        return "function @" + name + " ret i32 {\n.LBB0:\n"
               "  %vr0_32 = COPY edi\n"
               "  %vr1_32 = MOV32rm [@g + 4]\n"
               "  eax = COPY %vr1_32\n"
               "  CDQ\n"
               "  IDIV32 %vr0_32\n"
               "  %vr2_32 = COPY " + result + "\n"
               "  eax = COPY %vr2_32\n"
               "  RET\n}\n";
    };
    std::string source = std::string(R"(function @load ret i32 {
.LBB0:
  %vr0_32 = MOV32rm [@g + 4]
  eax = COPY %vr0_32
  RET
}
)") + division("rem", "edx") + division("quo", "eax");
    Vx86SymbolicFixture fx(source.c_str(), [](mem::MemoryLayout &layout) {
        layout.addGlobal("@g", 8);
    });
    smt::TermFactory &tf = fx.tf_;
    std::vector<SymbolicState> loaded = fx.runToEnd(fx.entryState("@load"));
    ASSERT_EQ(loaded.size(), 1u);
    Term x = loaded[0].result;
    ASSERT_EQ(x.kind(), smt::Kind::Concat) << x.toString();

    Term y = tf.var("y", smt::Sort::bitVec(32));
    Term fault_cond = tf.mkOr(
        tf.mkEq(y, tf.bvConst(32, 0)),
        tf.mkAnd(tf.mkEq(x, tf.bvConst(support::ApInt::signedMin(32))),
                 tf.mkEq(y, tf.bvConst(support::ApInt::allOnes(32)))));
    SymbolicState exited, fault;
    ASSERT_NO_FATAL_FAILURE(runDivision(fx, "@rem", y, &exited, &fault));
    EXPECT_EQ(exited.result, tf.bvSRem(x, y)) << exited.result.toString();
    EXPECT_EQ(fault.pathCond, fault_cond) << fault.pathCond.toString();
    ASSERT_NO_FATAL_FAILURE(runDivision(fx, "@quo", y, &exited, &fault));
    EXPECT_EQ(exited.result, tf.bvSDiv(x, y)) << exited.result.toString();
    EXPECT_EQ(fault.pathCond, fault_cond) << fault.pathCond.toString();
}

TEST(Vx86SymbolicTest, NonExtendingConstantDividendKeepsWidePath)
{
    // edx = 1 is not the extension of eax, so rdx:rax is a genuine
    // 64-bit dividend: 64-bit division plus the quotient-fits check.
    Vx86SymbolicFixture fx(R"(function @w ret i32 {
.LBB0:
  %vr0_32 = COPY edi
  eax = MOV32ri $4300
  edx = MOV32ri $1
  DIV32 %vr0_32
  %vr1_32 = COPY eax
  eax = COPY %vr1_32
  RET
}
)");
    smt::TermFactory &tf = fx.tf_;
    Term y = tf.var("y", smt::Sort::bitVec(32));
    SymbolicState exited, fault;
    ASSERT_NO_FATAL_FAILURE(runDivision(fx, "@w", y, &exited, &fault));
    Term quotient = tf.bvUDiv(tf.bvConst(64, (uint64_t{1} << 32) | 4300),
                              tf.zext(y, 64));
    Term narrow = tf.trunc(quotient, 32);
    EXPECT_EQ(exited.result, narrow);
    EXPECT_EQ(fault.pathCond,
              tf.mkOr(tf.mkEq(y, tf.bvConst(32, 0)),
                      tf.mkNot(tf.mkEq(tf.zext(narrow, 64), quotient))));
}

TEST(Vx86SymbolicTest, CallBoundaryCapturesArguments)
{
    Vx86SymbolicFixture fx(R"(function @c ret i32 {
.LBB0:
  %vr0_32 = COPY edi
  edi = COPY %vr0_32
  esi = MOV32ri $9
  eax = CALL @ext(edi, esi) site=cs0
  %vr1_32 = COPY eax
  eax = COPY %vr1_32
  RET
}
)");
    SymbolicState seed = fx.entryState("@c");
    Term a = fx.tf_.var("a", smt::Sort::bitVec(32));
    fx.sem_->bindRegister(seed, "@c", "edi", a);
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));
    ASSERT_EQ(finals.size(), 1u);
    const SymbolicState &at_call = finals[0];
    EXPECT_EQ(at_call.status, Status::AtCall);
    EXPECT_EQ(at_call.callee, "@ext");
    ASSERT_EQ(at_call.callArgs.size(), 2u);
    EXPECT_EQ(at_call.callArgs[0], a);
    EXPECT_EQ(at_call.callArgs[1], fx.tf_.bvConst(32, 9));
}

TEST(Vx86SymbolicTest, RegisterWidthsAndBinding)
{
    Vx86SymbolicFixture fx(R"(function @f ret i32 {
.LBB0:
  %vr0_32 = COPY edi
  eax = COPY %vr0_32
  RET
}
)");
    EXPECT_EQ(fx.sem_->registerWidth("@f", "%vr0_32"), 32u);
    EXPECT_EQ(fx.sem_->registerWidth("@f", "eax"), 32u);
    EXPECT_EQ(fx.sem_->registerWidth("@f", "rax"), 64u);
    EXPECT_EQ(fx.sem_->registerWidth("@f", "dil"), 8u);
    EXPECT_EQ(fx.sem_->registerWidth("@f", "zf"), 1u);
    EXPECT_EQ(fx.sem_->registerWidth("@f", sem::kReturnValueName), 32u);
}

} // namespace
} // namespace keq::vx86
