#ifndef KEQ_SMT_EVALUATOR_H
#define KEQ_SMT_EVALUATOR_H

/**
 * @file
 * Concrete evaluation of terms under a variable assignment.
 *
 * Used by the property-based tests to cross-check the factory's constant
 * folding and the Z3 translation: for random assignments, eval(t) must
 * agree with Z3's model-based evaluation and with folding of the
 * fully-substituted term.
 */

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

#include "src/smt/term.h"
#include "src/support/apint.h"

namespace keq::smt {

/** Concrete values for free variables. Array variables map to byte maps. */
class Assignment
{
  public:
    void setBv(const std::string &name, support::ApInt value);
    void setBool(const std::string &name, bool value);
    /** Sets one byte of an array variable (unset bytes read as 0). */
    void setArrayByte(const std::string &name, uint64_t address,
                      uint8_t value);

    support::ApInt bv(const std::string &name) const;
    bool boolean(const std::string &name) const;
    uint8_t arrayByte(const std::string &name, uint64_t address) const;

    bool hasBv(const std::string &name) const;
    bool hasBool(const std::string &name) const;

    /** Every bitvector variable set, for serialization. */
    const std::unordered_map<std::string, support::ApInt> &
    bvs() const
    {
        return bvs_;
    }

    /** Every bool variable set, for serialization. */
    const std::unordered_map<std::string, bool> &
    bools() const
    {
        return bools_;
    }

  private:
    std::unordered_map<std::string, support::ApInt> bvs_;
    std::unordered_map<std::string, bool> bools_;
    std::unordered_map<std::string, std::map<uint64_t, uint8_t>> arrays_;
};

/**
 * Evaluates terms bottom-up under an assignment.
 *
 * Array-sorted terms evaluate to (base array name, overlay of stored
 * bytes); bool and bitvector terms evaluate to concrete values.
 *
 * Results are memoized per evaluator instance (evaluation is pure), so
 * shared subterms of a hash-consed DAG are visited once — required for
 * the solver cache's model-reuse path, which evaluates whole solver
 * queries. The referenced Assignment must not change while this
 * evaluator is in use.
 */
class Evaluator
{
  public:
    explicit Evaluator(const Assignment &assignment)
        : assignment_(assignment)
    {}

    /** Evaluates a bitvector-sorted term. */
    support::ApInt evalBv(Term term);

    /** Evaluates a bool-sorted term. */
    bool evalBool(Term term);

  private:
    struct ArrayValue
    {
        std::string base;
        std::map<uint64_t, uint8_t> overlay;
    };

    support::ApInt evalBvUncached(Term term);
    bool evalBoolUncached(Term term);
    ArrayValue evalArray(Term term);
    ArrayValue evalArrayUncached(Term term);
    uint8_t readArray(const ArrayValue &array, uint64_t address) const;

    const Assignment &assignment_;
    std::unordered_map<uint64_t, support::ApInt> bvMemo_;
    std::unordered_map<uint64_t, bool> boolMemo_;
    std::unordered_map<uint64_t, ArrayValue> arrayMemo_;
};

} // namespace keq::smt

#endif // KEQ_SMT_EVALUATOR_H
