#ifndef KEQ_SMT_Z3_LOWERING_H
#define KEQ_SMT_Z3_LOWERING_H

/**
 * @file
 * Term -> Z3 AST translation shared by the Z3 backends.
 *
 * Internal header: it pulls in <z3++.h>, so only the backend .cc files
 * may include it (the public headers keep Z3 behind a pimpl). The
 * translation memoizes per term id — hash-consing makes that a perfect
 * cache — and the memo's lifetime is the context's, so repeated queries
 * over a shared factory re-lower nothing.
 */

#include <string>
#include <unordered_map>
#include <vector>

#include <z3++.h>

#include "src/smt/evaluator.h"
#include "src/smt/term.h"
#include "src/support/diagnostics.h"

namespace keq::smt {

/** Memoizing lowering of hash-consed terms into one z3::context. */
class Z3Lowering
{
  public:
    explicit Z3Lowering(z3::context &ctx) : ctx_(ctx) {}

    z3::sort
    lowerSort(Sort sort)
    {
        switch (sort.kind()) {
          case Sort::Kind::Bool:
            return ctx_.bool_sort();
          case Sort::Kind::BitVec:
            return ctx_.bv_sort(sort.width());
          case Sort::Kind::MemArray:
            return ctx_.array_sort(ctx_.bv_sort(64), ctx_.bv_sort(8));
        }
        KEQ_ASSERT(false, "lowerSort: unhandled sort");
        return ctx_.bool_sort();
    }

    z3::expr
    lower(Term term)
    {
        auto it = cache_.find(term.id());
        if (it != cache_.end())
            return it->second;
        z3::expr result = lowerUncached(term);
        cache_.emplace(term.id(), result);
        return result;
    }

  private:
    z3::expr
    lowerUncached(Term term)
    {
        switch (term.kind()) {
          case Kind::BvConst:
            return ctx_.bv_val(term.bvValue().zext(),
                               term.bvValue().width());
          case Kind::BoolConst:
            return ctx_.bool_val(term.boolValue());
          case Kind::Var:
            return ctx_.constant(term.varName().c_str(),
                                 lowerSort(term.sort()));
          case Kind::Not:
            return !lower(term.operand(0));
          case Kind::And:
            return lower(term.operand(0)) && lower(term.operand(1));
          case Kind::Or:
            return lower(term.operand(0)) || lower(term.operand(1));
          case Kind::Implies:
            return z3::implies(lower(term.operand(0)),
                               lower(term.operand(1)));
          case Kind::Iff:
            return lower(term.operand(0)) == lower(term.operand(1));
          case Kind::Ite:
            return z3::ite(lower(term.operand(0)),
                           lower(term.operand(1)),
                           lower(term.operand(2)));
          case Kind::BvAdd:
            return lower(term.operand(0)) + lower(term.operand(1));
          case Kind::BvSub:
            return lower(term.operand(0)) - lower(term.operand(1));
          case Kind::BvMul:
            return lower(term.operand(0)) * lower(term.operand(1));
          case Kind::BvUDiv:
            return z3::udiv(lower(term.operand(0)),
                            lower(term.operand(1)));
          case Kind::BvSDiv:
            return lower(term.operand(0)) / lower(term.operand(1));
          case Kind::BvURem:
            return z3::urem(lower(term.operand(0)),
                            lower(term.operand(1)));
          case Kind::BvSRem:
            return z3::srem(lower(term.operand(0)),
                            lower(term.operand(1)));
          case Kind::BvAnd:
            return lower(term.operand(0)) & lower(term.operand(1));
          case Kind::BvOr:
            return lower(term.operand(0)) | lower(term.operand(1));
          case Kind::BvXor:
            return lower(term.operand(0)) ^ lower(term.operand(1));
          case Kind::BvNot:
            return ~lower(term.operand(0));
          case Kind::BvNeg:
            return -lower(term.operand(0));
          case Kind::BvShl:
            return z3::shl(lower(term.operand(0)),
                           lower(term.operand(1)));
          case Kind::BvLShr:
            return z3::lshr(lower(term.operand(0)),
                            lower(term.operand(1)));
          case Kind::BvAShr:
            return z3::ashr(lower(term.operand(0)),
                            lower(term.operand(1)));
          case Kind::Eq:
            return lower(term.operand(0)) == lower(term.operand(1));
          case Kind::BvUlt:
            return z3::ult(lower(term.operand(0)),
                           lower(term.operand(1)));
          case Kind::BvUle:
            return z3::ule(lower(term.operand(0)),
                           lower(term.operand(1)));
          case Kind::BvSlt:
            return lower(term.operand(0)) < lower(term.operand(1));
          case Kind::BvSle:
            return lower(term.operand(0)) <= lower(term.operand(1));
          case Kind::ZExt:
            return z3::zext(lower(term.operand(0)),
                            term.sort().width() -
                                term.operand(0).sort().width());
          case Kind::SExt:
            return z3::sext(lower(term.operand(0)),
                            term.sort().width() -
                                term.operand(0).sort().width());
          case Kind::Extract:
            return lower(term.operand(0))
                .extract(term.extractHi(), term.extractLo());
          case Kind::Concat:
            return z3::concat(lower(term.operand(0)),
                              lower(term.operand(1)));
          case Kind::Select:
            return z3::select(lower(term.operand(0)),
                              lower(term.operand(1)));
          case Kind::Store:
            return z3::store(lower(term.operand(0)),
                             lower(term.operand(1)),
                             lower(term.operand(2)));
        }
        KEQ_ASSERT(false, "lowerUncached: unhandled kind");
        return ctx_.bool_val(false);
    }

    z3::context &ctx_;
    std::unordered_map<uint64_t, z3::expr> cache_;
};

/**
 * Copies the bitvector and bool constants of @p model into @p out,
 * skipping any constant whose name @p skip accepts (e.g. backend-
 * internal assumption literals). Array interpretations are not
 * extracted: consumers re-verify reused models by evaluation, under
 * which unlisted bytes read as zero.
 */
inline void
extractModel(const z3::model &model, Assignment *out,
             bool (*skip)(const std::string &) = nullptr)
{
    for (unsigned i = 0; i < model.size(); ++i) {
        z3::func_decl decl = model[i];
        if (decl.arity() != 0)
            continue;
        if (skip != nullptr && skip(decl.name().str()))
            continue;
        z3::expr value = model.get_const_interp(decl);
        z3::sort range = decl.range();
        if (range.is_bv() && range.bv_size() <= 64 &&
            value.is_numeral()) {
            out->setBv(decl.name().str(),
                       support::ApInt(range.bv_size(),
                                      value.get_numeral_uint64()));
        } else if (range.is_bool() && value.is_bool()) {
            out->setBool(decl.name().str(), value.is_true());
        }
    }
}

} // namespace keq::smt

#endif // KEQ_SMT_Z3_LOWERING_H
