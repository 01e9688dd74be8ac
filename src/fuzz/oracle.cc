#include "src/fuzz/oracle.h"

#include <sstream>

#include "src/llvmir/interpreter.h"
#include "src/llvmir/layout_builder.h"
#include "src/vx86/interpreter.h"

namespace keq::fuzz {

using support::ApInt;
using support::Rng;

namespace {

/**
 * Deterministic external-call model shared by both interpreters: a pure
 * hash of the callee name and arguments (the differential tests' model).
 */
ApInt
externalModel(const std::string &callee, const std::vector<ApInt> &args)
{
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (char c : callee)
        h = (h ^ static_cast<uint64_t>(c)) * 31;
    for (const ApInt &arg : args)
        h = (h ^ arg.zext()) * 0x100000001b3ull;
    return ApInt(64, h & 0xffff);
}

std::string
describeTrial(size_t trial, const std::vector<ApInt> &args,
              const char *what)
{
    std::ostringstream out;
    out << "trial " << trial << " (args";
    for (const ApInt &arg : args)
        out << " " << arg.toString();
    out << "): " << what;
    return out.str();
}

} // namespace

const char *
execAgreementName(ExecAgreement agreement)
{
    switch (agreement) {
    case ExecAgreement::Agree:
        return "agree";
    case ExecAgreement::Diverged:
        return "diverged";
    case ExecAgreement::Inconclusive:
        return "inconclusive";
    }
    return "?";
}

const char *
oracleVerdictName(OracleVerdict verdict)
{
    switch (verdict) {
    case OracleVerdict::Agree:
        return "agree";
    case OracleVerdict::Killed:
        return "killed";
    case OracleVerdict::SoundnessBug:
        return "SOUNDNESS-BUG";
    case OracleVerdict::Inconclusive:
        return "inconclusive";
    }
    return "?";
}

ExecAgreement
compareExecutions(const llvmir::Module &module, const llvmir::Function &fn,
                  const vx86::MFunction &mfn, Rng &rng,
                  const OracleOptions &options, OracleResult &result)
{
    mem::MemoryLayout layout;
    llvmir::populateLayout(module, layout);

    vx86::MModule mmodule;
    mmodule.functions.push_back(mfn);

    ExecAgreement agreement = ExecAgreement::Inconclusive;
    for (size_t trial = 0; trial < options.trials; ++trial) {
        std::vector<ApInt> args;
        for (const llvmir::Parameter &param : fn.params) {
            // Mix small values (loop bounds, selectors) with full-range
            // bit patterns (sign and width corner cases).
            uint64_t bits = trial % 2 == 0 ? rng.below(40) : rng.next();
            args.push_back(ApInt(param.type->valueBits(), bits));
        }

        // Identical initial memories on both sides; the fill stream is a
        // function of the trial rng so different trials see different
        // images.
        mem::ConcreteMemory mem_a(layout);
        mem::ConcreteMemory mem_b(layout);
        uint64_t fill_seed = rng.next();
        for (const mem::MemoryObject &object : layout.objects()) {
            Rng fill(fill_seed ^ object.base);
            for (uint64_t i = 0; i < object.size; ++i) {
                uint8_t byte = static_cast<uint8_t>(fill.next());
                mem_a.poke(object.base + i, byte);
                mem_b.poke(object.base + i, byte);
            }
        }

        llvmir::Interpreter interp_a(module, mem_a);
        interp_a.setExternalHandler(externalModel);
        llvmir::ExecResult res_a =
            interp_a.run(fn, args, options.llvmStepBudget);

        vx86::Interpreter interp_b(mmodule, mem_b);
        interp_b.setExternalHandler(externalModel);
        std::vector<ApInt> margs;
        for (const ApInt &arg : args)
            margs.push_back(arg.zextTo(64));
        vx86::MExecResult res_b =
            interp_b.run(mfn, margs, options.x86StepBudget);

        result.trialsRun++;

        if (res_a.outcome == llvmir::ExecOutcome::StepLimit ||
            res_b.outcome == vx86::MExecOutcome::StepLimit)
            continue; // budget races carry no information
        if (res_a.outcome == llvmir::ExecOutcome::Trapped)
            continue; // input trap licenses any output (refinement)

        result.trialsObserved++;
        if (agreement == ExecAgreement::Inconclusive)
            agreement = ExecAgreement::Agree;

        auto diverged = [&](const char *what) {
            agreement = ExecAgreement::Diverged;
            if (result.divergentTrial < 0) {
                result.divergentTrial = static_cast<int>(trial);
                result.detail = describeTrial(trial, args, what);
            }
        };

        if (res_b.outcome == vx86::MExecOutcome::Trapped) {
            diverged("x86 side trapped where LLVM side returned");
            continue;
        }
        bool value_differs =
            !fn.returnType->isVoid() &&
            res_a.value.zextTo(64) != res_b.value.zextTo(64);
        if (value_differs) {
            diverged("return values differ");
            continue;
        }
        if (res_a.callTrace != res_b.callTrace) {
            diverged("external call traces differ");
            continue;
        }
        bool memory_differs = false;
        for (const mem::MemoryObject &object : layout.objects()) {
            for (uint64_t i = 0; i < object.size && !memory_differs; ++i)
                memory_differs =
                    mem_a.peek(object.base + i) !=
                    mem_b.peek(object.base + i);
        }
        if (memory_differs)
            diverged("final memory images differ");
    }
    return agreement;
}

OracleResult
crossCheck(const llvmir::Module &module, const llvmir::Function &fn,
           const vx86::MFunction &mfn, const isel::FunctionHints &hints,
           Rng &rng, const OracleOptions &options)
{
    OracleResult result;
    result.execution =
        compareExecutions(module, fn, mfn, rng, options, result);
    result.report = driver::validateFunctionPair(module, fn, mfn, hints,
                                                 options.pipeline);

    switch (result.report.outcome) {
    case driver::Outcome::Succeeded:
        result.verdict = result.execution == ExecAgreement::Diverged
                             ? OracleVerdict::SoundnessBug
                             : OracleVerdict::Agree;
        break;
    case driver::Outcome::Other:
        result.verdict = OracleVerdict::Killed;
        break;
    case driver::Outcome::Timeout:
    case driver::Outcome::OutOfMemory:
    case driver::Outcome::Unsupported:
        result.verdict = OracleVerdict::Inconclusive;
        break;
    }
    if (result.verdict == OracleVerdict::SoundnessBug &&
        result.detail.empty())
        result.detail = "checker validated a diverging pair";
    return result;
}

} // namespace keq::fuzz
