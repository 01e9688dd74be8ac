/** @file Symbolic LLVM semantics tests: stepping, branching, UB splits,
 *  and agreement with the concrete interpreter on concrete inputs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/llvmir/interpreter.h"
#include "src/llvmir/layout_builder.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/symbolic_semantics.h"
#include "src/sem/sync_point.h"
#include "src/smt/evaluator.h"
#include "src/support/rng.h"

namespace keq::llvmir {
namespace {

using sem::Status;
using sem::SymbolicState;
using smt::Term;
using support::ApInt;

/** Test fixture owning a module and its symbolic machinery. */
class SymbolicFixture
{
  public:
    explicit SymbolicFixture(const char *source)
        : module_(parseModule(source))
    {
        populateLayout(module_, layout_);
        sem_ = std::make_unique<SymbolicSemantics>(module_, tf_, layout_);
    }

    /** Seeds a state at the entry of @p fn with fresh parameter vars. */
    SymbolicState
    entryState(const std::string &fn_name)
    {
        const Function *fn = module_.findFunction(fn_name);
        SymbolicState state = sem_->makeState(
            {fn_name, "", "", ""}, {},
            tf_.var("mem", smt::Sort::memArray()), tf_.trueTerm());
        for (const Parameter &param : fn->params) {
            sem_->bindRegister(state, fn_name, param.name,
                               tf_.var(param.name.substr(1),
                                       smt::Sort::bitVec(
                                           param.type->valueBits())));
        }
        return state;
    }

    /** Runs to quiescence: steps every Running state; returns terminals. */
    std::vector<SymbolicState>
    runToEnd(SymbolicState seed, size_t max_steps = 2000)
    {
        std::vector<SymbolicState> work{std::move(seed)};
        std::vector<SymbolicState> done;
        size_t steps = 0;
        while (!work.empty()) {
            if (++steps > max_steps)
                ADD_FAILURE() << "step budget exceeded";
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

    Module module_;
    smt::TermFactory tf_;
    mem::MemoryLayout layout_;
    std::unique_ptr<SymbolicSemantics> sem_;
};

TEST(LlvmSymbolicTest, StraightLineProducesExpression)
{
    SymbolicFixture fx(R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %1 = add i32 %a, %b
  %2 = mul i32 %1, 2
  ret i32 %2
}
)");
    std::vector<SymbolicState> finals =
        fx.runToEnd(fx.entryState("@f"));
    ASSERT_EQ(finals.size(), 1u);
    EXPECT_EQ(finals[0].status, Status::Exited);
    Term expected = fx.tf_.bvMul(
        fx.tf_.bvAdd(fx.tf_.var("a", smt::Sort::bitVec(32)),
                     fx.tf_.var("b", smt::Sort::bitVec(32))),
        fx.tf_.bvConst(32, 2));
    EXPECT_EQ(finals[0].result, expected);
}

TEST(LlvmSymbolicTest, BranchSplitsWithDisjointConditions)
{
    SymbolicFixture fx(R"(
define i32 @f(i32 %a) {
entry:
  %c = icmp ult i32 %a, 10
  br i1 %c, label %small, label %big
small:
  ret i32 1
big:
  ret i32 2
}
)");
    std::vector<SymbolicState> finals =
        fx.runToEnd(fx.entryState("@f"));
    ASSERT_EQ(finals.size(), 2u);
    // Path conditions complement each other.
    Term disjunction =
        fx.tf_.mkOr(finals[0].pathCond, finals[1].pathCond);
    EXPECT_TRUE(disjunction.isTrue());
    Term conjunction =
        fx.tf_.mkAnd(finals[0].pathCond, finals[1].pathCond);
    // The two conditions are c and !c, so folding detects disjointness.
    EXPECT_TRUE(conjunction.isFalse());
}

TEST(LlvmSymbolicTest, NswAddSplitsIntoErrorState)
{
    SymbolicFixture fx(R"(
define i32 @f(i32 %a) {
entry:
  %r = add nsw i32 %a, 1
  ret i32 %r
}
)");
    std::vector<SymbolicState> finals =
        fx.runToEnd(fx.entryState("@f"));
    ASSERT_EQ(finals.size(), 2u);
    int errors = 0, exits = 0;
    for (const SymbolicState &state : finals) {
        if (state.status == Status::Error) {
            ++errors;
            EXPECT_EQ(state.errorKind, sem::ErrorKind::SignedOverflow);
        } else if (state.status == Status::Exited) {
            ++exits;
        }
    }
    EXPECT_EQ(errors, 1);
    EXPECT_EQ(exits, 1);
}

TEST(LlvmSymbolicTest, ConstantFoldedUbDoesNotSplit)
{
    SymbolicFixture fx(R"(
define i32 @f() {
entry:
  %r = add nsw i32 1, 2
  %q = sdiv i32 %r, 3
  ret i32 %q
}
)");
    std::vector<SymbolicState> finals =
        fx.runToEnd(fx.entryState("@f"));
    ASSERT_EQ(finals.size(), 1u);
    EXPECT_EQ(finals[0].status, Status::Exited);
    EXPECT_EQ(finals[0].result, fx.tf_.bvConst(32, 1));
}

/** Widest bitvector sort anywhere in @p term. */
unsigned
widestBitVec(Term term)
{
    unsigned widest = term.sort().isBitVec() ? term.sort().width() : 0;
    for (size_t i = 0; i < term.numOperands(); ++i)
        widest = std::max(widest, widestBitVec(term.operand(i)));
    return widest;
}

TEST(LlvmSymbolicTest, AddSubOverflowMatchesTheWideFormExhaustively)
{
    // addSubOverflow builds the add/sub nsw/nuw conditions at operand
    // width w. For every operand pair at widths 1-8, each must equal the
    // 2w-bit extend-and-compare form it replaced: ext(a) op ext(b) !=
    // ext(a op b), with sext for nsw and zext for nuw.
    for (unsigned w = 1; w <= 8; ++w) {
        smt::TermFactory tf; // variables keep one sort per factory
        Term a = tf.var("a", smt::Sort::bitVec(w));
        Term b = tf.var("b", smt::Sort::bitVec(w));
        for (bool is_add : {true, false}) {
            smt::Kind kind = is_add ? smt::Kind::BvAdd : smt::Kind::BvSub;
            Term result = tf.bvBinOp(kind, a, b);
            for (bool is_signed : {true, false}) {
                std::string label = std::string(is_add ? "add" : "sub") +
                                    (is_signed ? " nsw i" : " nuw i") +
                                    std::to_string(w);
                Term narrow =
                    addSubOverflow(tf, is_add, is_signed, a, b, result);
                EXPECT_EQ(widestBitVec(narrow), w) << label;
                auto ext = [&](Term t) {
                    return is_signed ? tf.sext(t, 2 * w)
                                     : tf.zext(t, 2 * w);
                };
                Term wide = tf.mkNot(tf.mkEq(
                    tf.bvBinOp(kind, ext(a), ext(b)), ext(result)));
                for (uint64_t x = 0; x < (uint64_t{1} << w); ++x) {
                    for (uint64_t y = 0; y < (uint64_t{1} << w); ++y) {
                        smt::Assignment env;
                        env.setBv("a", ApInt(w, x));
                        env.setBv("b", ApInt(w, y));
                        smt::Evaluator ev(env);
                        ASSERT_EQ(ev.evalBool(narrow), ev.evalBool(wide))
                            << label << " a=" << x << " b=" << y;
                    }
                }
            }
        }
    }
}

TEST(LlvmSymbolicTest, AddSubOverflowChecksStayAtOperandWidth)
{
    // The semantics' error branch is exactly addSubOverflow's condition
    // (or of both for nuw nsw), with no term wider than the operands.
    for (const char *ty : {"i1", "i8", "i16", "i32"}) {
        for (const char *op : {"add", "sub"}) {
            for (const char *flags : {"nsw", "nuw", "nuw nsw"}) {
                std::string inst = std::string(op) + " " + flags + " " + ty;
                std::string source = std::string("define ") + ty +
                                     " @f(" + ty + " %a, " + ty +
                                     " %b) {\nentry:\n  %r = " + inst +
                                     " %a, %b\n  ret " + ty + " %r\n}\n";
                SymbolicFixture fx(source.c_str());
                std::vector<SymbolicState> succs =
                    fx.sem_->step(fx.entryState("@f"));
                ASSERT_EQ(succs.size(), 2u) << inst;
                ASSERT_EQ(succs[0].status, Status::Error) << inst;
                EXPECT_EQ(succs[0].errorKind,
                          sem::ErrorKind::SignedOverflow);

                smt::TermFactory &tf = fx.tf_;
                unsigned w = fx.sem_->registerWidth("@f", "%a");
                Term a = tf.var("a", smt::Sort::bitVec(w));
                Term b = tf.var("b", smt::Sort::bitVec(w));
                bool is_add = std::string(op) == "add";
                Term result = is_add ? tf.bvAdd(a, b) : tf.bvSub(a, b);
                Term expected = tf.falseTerm();
                if (std::string(flags) != "nuw")
                    expected = addSubOverflow(tf, is_add, true, a, b, result);
                if (std::string(flags) != "nsw") {
                    expected = tf.mkOr(expected,
                                       addSubOverflow(tf, is_add, false, a,
                                                      b, result));
                }
                EXPECT_EQ(succs[0].pathCond, expected) << inst;
                EXPECT_EQ(widestBitVec(succs[0].pathCond), w) << inst;
            }
        }
    }
}

TEST(LlvmSymbolicTest, CallStopsWithArguments)
{
    SymbolicFixture fx(R"(
declare i32 @ext(i32, i32)
define i32 @f(i32 %a) {
entry:
  %r = call i32 @ext(i32 %a, i32 7)
  ret i32 %r
}
)");
    std::vector<SymbolicState> finals =
        fx.runToEnd(fx.entryState("@f"));
    ASSERT_EQ(finals.size(), 1u);
    const SymbolicState &at_call = finals[0];
    EXPECT_EQ(at_call.status, Status::AtCall);
    EXPECT_EQ(at_call.callee, "@ext");
    EXPECT_EQ(at_call.callSiteId, "cs0");
    ASSERT_EQ(at_call.callArgs.size(), 2u);
    EXPECT_EQ(at_call.callArgs[1], fx.tf_.bvConst(32, 7));
}

TEST(LlvmSymbolicTest, AfterCallSeedPositionsPastTheCall)
{
    SymbolicFixture fx(R"(
declare i32 @ext(i32)
define i32 @f(i32 %a) {
entry:
  %r = call i32 @ext(i32 %a)
  %s = add i32 %r, 1
  ret i32 %s
}
)");
    SymbolicState state = fx.sem_->makeState(
        {"@f", "entry", "", "cs0"}, {},
        fx.tf_.var("mem", smt::Sort::memArray()), fx.tf_.trueTerm());
    fx.sem_->bindRegister(state, "@f", "%r",
                          fx.tf_.var("ret", smt::Sort::bitVec(32)));
    EXPECT_EQ(state.instIndex, 1u);
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(state));
    ASSERT_EQ(finals.size(), 1u);
    EXPECT_EQ(finals[0].result,
              fx.tf_.bvAdd(fx.tf_.var("ret", smt::Sort::bitVec(32)),
                           fx.tf_.bvConst(32, 1)));
}

TEST(LlvmSymbolicTest, ConcreteLoadFoldsThroughMemory)
{
    SymbolicFixture fx(R"(
@g = external global i32
define i32 @f(i32 %v) {
entry:
  store i32 %v, i32* @g
  %r = load i32, i32* @g
  ret i32 %r
}
)");
    std::vector<SymbolicState> finals =
        fx.runToEnd(fx.entryState("@f"));
    ASSERT_EQ(finals.size(), 1u);
    // Store-forwarding through the hash-consed store chain: the result
    // is exactly the stored variable.
    EXPECT_EQ(finals[0].result,
              fx.tf_.var("v", smt::Sort::bitVec(32)));
}

TEST(LlvmSymbolicTest, HavocOnUnboundReadIsRecorded)
{
    SymbolicFixture fx(R"(
define i32 @f(i32 %a) {
entry:
  ret i32 %a
}
)");
    SymbolicState state = fx.sem_->makeState(
        {"@f", "", "", ""}, {},
        fx.tf_.var("mem", smt::Sort::memArray()), fx.tf_.trueTerm());
    Term first = fx.sem_->readRegister(state, "@f", "%a");
    Term second = fx.sem_->readRegister(state, "@f", "%a");
    EXPECT_EQ(first, second) << "havoc must be recorded in the state";
    EXPECT_TRUE(first.isVar());
}

TEST(LlvmSymbolicTest, RegisterWidths)
{
    SymbolicFixture fx(R"(
define i64 @f(i32 %a, i8 %b) {
entry:
  %c = icmp eq i32 %a, 0
  %w = zext i8 %b to i64
  ret i64 %w
}
)");
    EXPECT_EQ(fx.sem_->registerWidth("@f", "%a"), 32u);
    EXPECT_EQ(fx.sem_->registerWidth("@f", "%b"), 8u);
    EXPECT_EQ(fx.sem_->registerWidth("@f", "%c"), 1u);
    EXPECT_EQ(fx.sem_->registerWidth("@f", "%w"), 64u);
    EXPECT_EQ(fx.sem_->registerWidth("@f", sem::kReturnValueName), 64u);
}

/**
 * Differential property: symbolic execution with concrete inputs agrees
 * with the concrete interpreter on a loop+branch function.
 */
class SymbolicVsConcrete : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SymbolicVsConcrete, AgreeOnConcreteInputs)
{
    const char *source = R"(
define i32 @mix(i32 %a, i32 %b) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %acc = phi i32 [ %a, %entry ], [ %next, %body ]
  %c = icmp ult i32 %i, %b
  br i1 %c, label %body, label %done
body:
  %x = xor i32 %acc, %i
  %next = add i32 %x, 3
  %inc = add i32 %i, 1
  br label %head
done:
  %d = icmp sgt i32 %acc, 100
  %r = select i1 %d, i32 %acc, i32 0
  ret i32 %r
}
)";
    support::Rng rng(GetParam());
    uint32_t a = static_cast<uint32_t>(rng.next());
    uint32_t b = static_cast<uint32_t>(rng.below(20));

    // Concrete run.
    Module module = parseModule(source);
    mem::MemoryLayout layout;
    populateLayout(module, layout);
    mem::ConcreteMemory memory(layout);
    Interpreter interp(module, memory);
    ExecResult concrete = interp.run(*module.findFunction("@mix"),
                                     {ApInt(32, a), ApInt(32, b)});
    ASSERT_EQ(concrete.outcome, ExecOutcome::Returned);

    // Symbolic run with concrete bindings.
    SymbolicFixture fx(source);
    SymbolicState seed = fx.sem_->makeState(
        {"@mix", "", "", ""}, {},
        fx.tf_.var("mem", smt::Sort::memArray()), fx.tf_.trueTerm());
    fx.sem_->bindRegister(seed, "@mix", "%a", fx.tf_.bvConst(32, a));
    fx.sem_->bindRegister(seed, "@mix", "%b", fx.tf_.bvConst(32, b));
    std::vector<SymbolicState> finals = fx.runToEnd(std::move(seed));

    // With concrete inputs the path fully folds: exactly one feasible
    // final state, with a constant result matching the interpreter.
    std::vector<const SymbolicState *> feasible;
    for (const SymbolicState &state : finals) {
        if (!state.pathCond.isFalse())
            feasible.push_back(&state);
    }
    ASSERT_EQ(feasible.size(), 1u);
    ASSERT_EQ(feasible[0]->status, Status::Exited);
    ASSERT_TRUE(feasible[0]->result.isBvConst());
    EXPECT_EQ(feasible[0]->result.bvValue().zext(),
              concrete.value.zext());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicVsConcrete,
                         ::testing::Range(uint64_t{0}, uint64_t{12}));

} // namespace
} // namespace keq::llvmir
