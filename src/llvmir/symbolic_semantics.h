#ifndef KEQ_LLVMIR_SYMBOLIC_SEMANTICS_H
#define KEQ_LLVMIR_SYMBOLIC_SEMANTICS_H

/**
 * @file
 * Symbolic operational semantics of the LLVM IR subset (Section 4.2).
 *
 * This is the C++ analogue of the paper's K definition of LLVM IR: it
 * implements the language-parametric sem::Semantics interface by stepping
 * sem::SymbolicState values. Undefined behaviour (out-of-bounds accesses,
 * nsw/nuw overflow, division by zero) branches into marked error states
 * per Section 4.6.
 */

#include "src/llvmir/ir.h"
#include "src/memory/symbolic_memory.h"
#include "src/sem/semantics.h"

namespace keq::llvmir {

/**
 * When the w-bit `a + b` (@p is_add) or `a - b`, equal to @p result,
 * overflows: signed overflow (nsw) when @p is_signed, else unsigned
 * (nuw). Built at width w, as the x86 OF and CF flags are, not with the
 * 2w-bit extend-and-compare form Z3 struggles with.
 */
smt::Term addSubOverflow(smt::TermFactory &tf, bool is_add, bool is_signed,
                         smt::Term a, smt::Term b, smt::Term result);

/** Symbolic semantics of one LLVM module. */
class SymbolicSemantics : public sem::Semantics
{
  public:
    /**
     * @param module Verified module; must outlive the semantics.
     * @param factory Term factory shared with the checker and the other
     *                language's semantics.
     * @param layout Common memory layout already populated from the module.
     */
    SymbolicSemantics(const Module &module, smt::TermFactory &factory,
                      const mem::MemoryLayout &layout);

    std::string name() const override { return "LLVM"; }
    std::vector<sem::SymbolicState>
    step(const sem::SymbolicState &state) override;
    sem::SymbolicState makeState(const sem::StateSeed &seed,
                                 std::map<std::string, smt::Term> env,
                                 smt::Term memory,
                                 smt::Term path_cond) override;
    unsigned registerWidth(const std::string &function,
                           const std::string &reg) const override;
    void bindRegister(sem::SymbolicState &state,
                      const std::string &function, const std::string &reg,
                      smt::Term value) override;
    smt::Term readRegister(sem::SymbolicState &state,
                           const std::string &function,
                           const std::string &reg) override;
    smt::TermFactory &factory() override { return factory_; }

  private:
    smt::Term evalValue(sem::SymbolicState &state, const std::string &fn,
                        const Value &value);
    const Instruction &currentInst(const sem::SymbolicState &state) const;
    const Function &function(const std::string &name) const;

    const Module &module_;
    smt::TermFactory &factory_;
    mem::SymbolicMemory symMem_;
};

} // namespace keq::llvmir

#endif // KEQ_LLVMIR_SYMBOLIC_SEMANTICS_H
