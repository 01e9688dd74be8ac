/** @file Differential testing of the symbolic Virtual x86 semantics
 *  against the concrete Virtual x86 interpreter, on ISel-lowered corpus
 *  functions: for random inputs, exactly one symbolic path condition
 *  holds, and that path's result/trap/memory must match the concrete
 *  execution. The x86 twin of tests/llvmir/differential_test.cc. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/driver/corpus.h"
#include "src/isel/isel.h"
#include "src/llvmir/layout_builder.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/smt/evaluator.h"
#include "src/support/rng.h"
#include "src/vx86/interpreter.h"
#include "src/vx86/symbolic_semantics.h"

namespace keq::vx86 {
namespace {

using sem::Status;
using sem::SymbolicState;
using smt::Term;
using support::ApInt;
using support::Rng;

/** Lowers an LLVM module and owns the vx86 symbolic machinery. */
class Vx86DifferentialFixture
{
  public:
    explicit Vx86DifferentialFixture(std::string llvm_source)
        : module_(llvmir::parseModule(llvm_source))
    {
        llvmir::verifyModuleOrThrow(module_);
        llvmir::populateLayout(module_, layout_);
        isel::ModuleHints hints;
        mmodule_ = isel::lowerModule(module_, {}, hints);
        sem_ = std::make_unique<SymbolicSemantics>(mmodule_, tf_,
                                                   layout_);
    }

    /** Seeds entry with one fresh 64-bit var per argument register. */
    SymbolicState
    entryState(const std::string &fn, size_t arg_count)
    {
        SymbolicState state = sem_->makeState(
            {fn, "", "", ""}, {},
            tf_.var("mem", smt::Sort::memArray()), tf_.trueTerm());
        for (size_t i = 0; i < arg_count; ++i) {
            sem_->bindRegister(state, fn, kArgRegs[i],
                               tf_.var("arg" + std::to_string(i),
                                       smt::Sort::bitVec(64)));
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

    llvmir::Module module_;
    MModule mmodule_;
    smt::TermFactory tf_;
    mem::MemoryLayout layout_;
    std::unique_ptr<SymbolicSemantics> sem_;
};

void
checkAgreement(Vx86DifferentialFixture &fx, const MFunction &mfn,
               const std::vector<ApInt> &args)
{
    // Concrete run against per-object deterministic noise.
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
    Interpreter interp(fx.mmodule_, memory);
    MExecResult concrete = interp.run(mfn, args, 100000);
    if (concrete.outcome == MExecOutcome::StepLimit)
        return;

    for (size_t i = 0; i < args.size(); ++i)
        env.setBv("arg" + std::to_string(i), args[i].zextTo(64));
    std::vector<SymbolicState> finals =
        fx.runToEnd(fx.entryState(mfn.name, args.size()));
    ASSERT_FALSE(finals.empty());

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
        << mfn.name << ": path conditions must partition the inputs";

    if (concrete.outcome == MExecOutcome::Trapped) {
        EXPECT_EQ(chosen->status, Status::Error)
            << mfn.name << ": interpreter trapped ("
            << sem::errorKindName(concrete.error)
            << ") but the symbolic path did not";
        if (chosen->status == Status::Error) {
            EXPECT_EQ(chosen->errorKind, concrete.error) << mfn.name;
        }
        return;
    }

    ASSERT_EQ(chosen->status, Status::Exited)
        << mfn.name << ": interpreter returned but the symbolic path "
        << sem::statusName(chosen->status);
    if (chosen->result) {
        EXPECT_EQ(ev.evalBv(chosen->result).zextTo(64).zext(),
                  concrete.value.zextTo(64).zext())
            << mfn.name << ": return values diverged";
    }

    for (const mem::MemoryObject &object : fx.layout_.objects()) {
        for (uint64_t i = 0; i < object.size; ++i) {
            uint64_t addr = object.base + i;
            ApInt byte = ev.evalBv(fx.tf_.select(
                chosen->memory, fx.tf_.bvConst(64, addr)));
            ASSERT_EQ(byte.zext(), uint64_t{memory.peek(addr)})
                << mfn.name << ": memory diverged at " << object.name
                << "+" << i;
        }
    }
}

class Vx86DifferentialTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(Vx86DifferentialTest, SymbolicAgreesWithInterpreterOnCorpus)
{
    driver::CorpusOptions copts;
    copts.seed = GetParam();
    copts.functionCount = 8;
    copts.includeLoops = false; // symbolic execution enumerates paths
    copts.includeCalls = false;
    copts.nswPercent = 0; // nsw is LLVM-level UB; lowering erases it
    Vx86DifferentialFixture fx(driver::generateCorpusSource(copts));

    Rng rng(GetParam() * 52711);
    for (const llvmir::Function &fn : fx.module_.functions) {
        if (fn.isDeclaration())
            continue;
        const MFunction *mfn = fx.mmodule_.findFunction(fn.name);
        ASSERT_NE(mfn, nullptr);
        for (int trial = 0; trial < 3; ++trial) {
            std::vector<ApInt> args;
            for (const llvmir::Parameter &param : fn.params) {
                uint64_t bits =
                    trial % 2 == 0 ? rng.below(64) : rng.next();
                args.push_back(
                    ApInt(param.type->valueBits(), bits).zextTo(64));
            }
            checkAgreement(fx, *mfn, args);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Vx86DifferentialTest,
                         ::testing::Range(uint64_t{8000},
                                          uint64_t{8006}));

TEST(Vx86DifferentialTest, LoweredBranchSelectsTheConcretePath)
{
    Vx86DifferentialFixture fx(R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %c = icmp ult i32 %a, %b
  br i1 %c, label %then, label %else
then:
  %s = add i32 %a, %b
  ret i32 %s
else:
  %d = sub i32 %a, %b
  ret i32 %d
}
)");
    const MFunction *mfn = fx.mmodule_.findFunction("@f");
    ASSERT_NE(mfn, nullptr);
    checkAgreement(fx, *mfn, {ApInt(64, 3), ApInt(64, 10)});
    checkAgreement(fx, *mfn, {ApInt(64, 10), ApInt(64, 3)});
    checkAgreement(fx, *mfn, {ApInt(64, 7), ApInt(64, 7)});
}

TEST(Vx86DifferentialTest, LoweredGlobalStoresMatchByteForByte)
{
    Vx86DifferentialFixture fx(R"(
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
    const MFunction *mfn = fx.mmodule_.findFunction("@f");
    ASSERT_NE(mfn, nullptr);
    checkAgreement(fx, *mfn, {ApInt(64, 0xdeadbeefull)});
    checkAgreement(fx, *mfn, {ApInt(64, 0)});
}

TEST(Vx86DifferentialTest, LoweredDivisionTrapsOnZero)
{
    Vx86DifferentialFixture fx(R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %q = udiv i32 %a, %b
  ret i32 %q
}
)");
    const MFunction *mfn = fx.mmodule_.findFunction("@f");
    ASSERT_NE(mfn, nullptr);
    checkAgreement(fx, *mfn, {ApInt(64, 100), ApInt(64, 7)});
    checkAgreement(fx, *mfn, {ApInt(64, 100), ApInt(64, 0)});
}

TEST(Vx86DifferentialTest, LoweredConstantDividendDivision)
{
    // A constant dividend folds rdx:rax into one literal; the narrow
    // division it takes must still trap and answer as the hardware.
    const char *ops[] = {"udiv", "urem", "sdiv", "srem"};
    const char *dividends[] = {"0", "4300", "-7", "-2147483648"};
    std::string source;
    std::vector<std::string> names;
    for (const char *op : ops) {
        for (size_t i = 0; i < std::size(dividends); ++i) {
            std::string name = "@" + std::string(op) + std::to_string(i);
            names.push_back(name);
            source += "define i32 " + name + "(i32 %b) {\nentry:\n  %q = " +
                      op + " i32 " + dividends[i] +
                      ", %b\n  ret i32 %q\n}\n";
        }
    }
    Vx86DifferentialFixture fx(source);
    for (const std::string &name : names) {
        const MFunction *mfn = fx.mmodule_.findFunction(name);
        ASSERT_NE(mfn, nullptr) << name;
        for (int64_t divisor : {0, 1, -1, 7}) {
            checkAgreement(
                fx, *mfn,
                {ApInt(32, static_cast<uint64_t>(divisor)).zextTo(64)});
        }
    }
}

} // namespace
} // namespace keq::vx86
