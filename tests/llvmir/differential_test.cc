/** @file Differential testing of the symbolic LLVM semantics against the
 *  concrete interpreter: for random inputs, exactly one symbolic path
 *  condition holds, and that path's result/trap/memory must match what
 *  the interpreter computes. Any disagreement is a soundness bug in one
 *  of the two semantics the validator relies on. */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/corpus.h"
#include "src/llvmir/interpreter.h"
#include "src/llvmir/layout_builder.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/symbolic_semantics.h"
#include "src/llvmir/verifier.h"
#include "src/smt/evaluator.h"
#include "src/support/rng.h"

namespace keq::llvmir {
namespace {

using sem::Status;
using sem::SymbolicState;
using smt::Term;
using support::ApInt;
using support::Rng;

/** Module + symbolic machinery, mirroring the symbolic-test fixture. */
class DifferentialFixture
{
  public:
    explicit DifferentialFixture(std::string source)
        : module_(parseModule(source))
    {
        verifyModuleOrThrow(module_);
        populateLayout(module_, layout_);
        sem_ = std::make_unique<SymbolicSemantics>(module_, tf_, layout_);
    }

    SymbolicState
    entryState(const Function &fn)
    {
        SymbolicState state = sem_->makeState(
            {fn.name, "", "", ""}, {},
            tf_.var("mem", smt::Sort::memArray()), tf_.trueTerm());
        for (const Parameter &param : fn.params) {
            sem_->bindRegister(state, fn.name, param.name,
                               tf_.var(param.name.substr(1),
                                       smt::Sort::bitVec(
                                           param.type->valueBits())));
        }
        return state;
    }

    std::vector<SymbolicState>
    runToEnd(SymbolicState seed, size_t max_steps = 20000)
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

    Module module_;
    smt::TermFactory tf_;
    mem::MemoryLayout layout_;
    std::unique_ptr<SymbolicSemantics> sem_;
};

/**
 * Runs @p fn both ways on @p args and checks agreement. The initial
 * memory is deterministic per-object noise, installed identically in the
 * concrete memory and the symbolic assignment.
 */
void
checkAgreement(DifferentialFixture &fx, const Function &fn,
               const std::vector<ApInt> &args)
{
    // Concrete run.
    mem::ConcreteMemory memory(fx.layout_);
    smt::Assignment env;
    for (const mem::MemoryObject &object : fx.layout_.objects()) {
        Rng fill(object.base);
        for (uint64_t i = 0; i < object.size; ++i) {
            uint8_t byte = static_cast<uint8_t>(fill.next());
            memory.poke(object.base + i, byte);
            env.setArrayByte("mem", object.base + i, byte);
        }
    }
    Interpreter interp(fx.module_, memory);
    ExecResult concrete = interp.run(fn, args, 50000);
    if (concrete.outcome == ExecOutcome::StepLimit)
        return; // not a behaviour, just a budget race

    // Symbolic run over the same entry state.
    for (size_t i = 0; i < fn.params.size(); ++i)
        env.setBv(fn.params[i].name.substr(1), args[i]);
    std::vector<SymbolicState> finals =
        fx.runToEnd(fx.entryState(fn));
    ASSERT_FALSE(finals.empty());

    // Path conditions must select exactly one final state.
    smt::Evaluator ev(env);
    const SymbolicState *chosen = nullptr;
    size_t true_paths = 0;
    for (const SymbolicState &final_state : finals) {
        if (ev.evalBool(final_state.pathCond)) {
            ++true_paths;
            chosen = &final_state;
        }
    }
    ASSERT_EQ(true_paths, 1u)
        << fn.name << ": path conditions must partition the inputs";

    if (concrete.outcome == ExecOutcome::Trapped) {
        EXPECT_EQ(chosen->status, Status::Error)
            << fn.name << ": interpreter trapped ("
            << sem::errorKindName(concrete.error)
            << ") but the symbolic path did not";
        if (chosen->status == Status::Error) {
            EXPECT_EQ(chosen->errorKind, concrete.error) << fn.name;
        }
        return;
    }

    ASSERT_EQ(chosen->status, Status::Exited)
        << fn.name << ": interpreter returned but the symbolic path "
        << sem::statusName(chosen->status);
    if (chosen->result) {
        EXPECT_EQ(ev.evalBv(chosen->result).zext(),
                  concrete.value.zext())
            << fn.name << ": return values diverged";
    }

    // The final symbolic memory, evaluated byte by byte, must equal the
    // interpreter's memory.
    for (const mem::MemoryObject &object : fx.layout_.objects()) {
        for (uint64_t i = 0; i < object.size; ++i) {
            uint64_t addr = object.base + i;
            ApInt byte = ev.evalBv(fx.tf_.select(
                chosen->memory, fx.tf_.bvConst(64, addr)));
            ASSERT_EQ(byte.zext(), uint64_t{memory.peek(addr)})
                << fn.name << ": memory diverged at " << object.name
                << "+" << i;
        }
    }
}

class LlvmDifferentialTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(LlvmDifferentialTest, SymbolicAgreesWithInterpreterOnCorpus)
{
    driver::CorpusOptions copts;
    copts.seed = GetParam();
    copts.functionCount = 8;
    copts.includeLoops = false; // symbolic execution enumerates paths
    copts.includeCalls = false; // call boundaries stop symbolic runs
    copts.nswPercent = 25;      // keep UB traps in the mix
    DifferentialFixture fx(driver::generateCorpusSource(copts));

    Rng rng(GetParam() * 40503);
    for (const Function &fn : fx.module_.functions) {
        if (fn.isDeclaration())
            continue;
        for (int trial = 0; trial < 3; ++trial) {
            std::vector<ApInt> args;
            for (const Parameter &param : fn.params) {
                uint64_t bits =
                    trial % 2 == 0 ? rng.below(64) : rng.next();
                args.push_back(ApInt(param.type->valueBits(), bits));
            }
            checkAgreement(fx, fn, args);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LlvmDifferentialTest,
                         ::testing::Range(uint64_t{7000},
                                          uint64_t{7006}));

TEST(LlvmDifferentialTest, BranchingSelectsTheConcretePath)
{
    DifferentialFixture fx(R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %c = icmp slt i32 %a, %b
  br i1 %c, label %then, label %else
then:
  %s = add i32 %a, %b
  ret i32 %s
else:
  %d = sub i32 %a, %b
  ret i32 %d
}
)");
    const Function *fn = fx.module_.findFunction("@f");
    ASSERT_NE(fn, nullptr);
    checkAgreement(fx, *fn, {ApInt(32, 3), ApInt(32, 10)});
    checkAgreement(fx, *fn, {ApInt(32, 10), ApInt(32, 3)});
    checkAgreement(fx, *fn, {ApInt(32, 0x80000000ull), ApInt(32, 1)});
}

TEST(LlvmDifferentialTest, DivisionByZeroTrapsOnBothSides)
{
    DifferentialFixture fx(R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %q = udiv i32 %a, %b
  ret i32 %q
}
)");
    const Function *fn = fx.module_.findFunction("@f");
    ASSERT_NE(fn, nullptr);
    checkAgreement(fx, *fn, {ApInt(32, 100), ApInt(32, 7)});
    checkAgreement(fx, *fn, {ApInt(32, 100), ApInt(32, 0)});
}

TEST(LlvmDifferentialTest, NswOverflowTrapsOnBothSides)
{
    DifferentialFixture fx(R"(
define i32 @f(i32 %a) {
entry:
  %s = add nsw i32 %a, 1
  ret i32 %s
}
)");
    const Function *fn = fx.module_.findFunction("@f");
    ASSERT_NE(fn, nullptr);
    checkAgreement(fx, *fn, {ApInt(32, 41)});
    checkAgreement(fx, *fn, {ApInt(32, 0x7fffffffull)}); // INT_MAX + 1
}

TEST(LlvmDifferentialTest, AddSubOverflowEdgesAgreeWithInterpreter)
{
    // The w-bit nsw/nuw checks at the wrap edges: every pair drawn from
    // {INT_MIN, INT_MAX, 0, -1, 1} must trap (or not) and answer exactly
    // as the interpreter does, at each width the back end lowers.
    const char *insts[] = {"add nsw", "add nuw", "add nuw nsw",
                           "sub nsw", "sub nuw", "sub nuw nsw"};
    for (unsigned w : {8u, 16u, 32u}) {
        std::string ty = "i" + std::to_string(w);
        std::string source;
        for (size_t i = 0; i < std::size(insts); ++i) {
            source += "define " + ty + " @f" + std::to_string(i) + "(" +
                      ty + " %a, " + ty + " %b) {\nentry:\n  %r = " +
                      insts[i] + " " + ty + " %a, %b\n  ret " + ty +
                      " %r\n}\n";
        }
        DifferentialFixture fx(source);
        const ApInt edges[] = {ApInt::signedMin(w), ApInt::signedMax(w),
                               ApInt(w, 0), ApInt::allOnes(w),
                               ApInt(w, 1)};
        for (const Function &fn : fx.module_.functions) {
            for (const ApInt &a : edges) {
                for (const ApInt &b : edges)
                    checkAgreement(fx, fn, {a, b});
            }
        }
    }
}

TEST(LlvmDifferentialTest, GlobalMemoryRoundTrips)
{
    DifferentialFixture fx(R"(
@g = external global [16 x i8]
define i32 @f(i32 %a) {
entry:
  %p = getelementptr inbounds [16 x i8], [16 x i8]* @g, i64 0, i64 4
  %pw = bitcast i8* %p to i32*
  %old = load i32, i32* %pw
  store i32 %a, i32* %pw
  %r = add i32 %old, %a
  ret i32 %r
}
)");
    const Function *fn = fx.module_.findFunction("@f");
    ASSERT_NE(fn, nullptr);
    checkAgreement(fx, *fn, {ApInt(32, 0xdeadbeefull)});
    checkAgreement(fx, *fn, {ApInt(32, 0)});
}

} // namespace
} // namespace keq::llvmir
