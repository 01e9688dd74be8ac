#include "src/smt/term_factory.h"

#include <algorithm>

#include "src/support/diagnostics.h"

namespace keq::smt {

using support::ApInt;

size_t
TermFactory::NodeKeyHash::operator()(const NodeKey &key) const
{
    size_t h = std::hash<uint32_t>()(
        (static_cast<uint32_t>(key.kind) << 16) ^ key.sort);
    auto mix = [&h](uint64_t v) {
        h ^= std::hash<uint64_t>()(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
             (h >> 2);
    };
    for (uint64_t op : key.operands)
        mix(op);
    mix(key.aux0);
    mix(key.aux1);
    h ^= std::hash<std::string>()(key.name) * 31;
    return h;
}

TermFactory::TermFactory()
{
    true_ = intern(Kind::BoolConst, Sort::boolSort(), {}, ApInt(), true);
    false_ = intern(Kind::BoolConst, Sort::boolSort(), {}, ApInt(), false);
}

namespace {

/**
 * True when a == !b structurally: explicit negation, or the total-order
 * comparison complements (ult(x,y) vs ule(y,x), signed likewise) that
 * mkNot normalizes negations into.
 */
bool
areComplements(Term a, Term b)
{
    if (a.kind() == Kind::Not && a.operand(0) == b)
        return true;
    if (b.kind() == Kind::Not && b.operand(0) == a)
        return true;
    auto flipped = [](Term strict, Term weak, Kind strict_kind,
                      Kind weak_kind) {
        return strict.kind() == strict_kind &&
               weak.kind() == weak_kind &&
               strict.operand(0) == weak.operand(1) &&
               strict.operand(1) == weak.operand(0);
    };
    return flipped(a, b, Kind::BvUlt, Kind::BvUle) ||
           flipped(b, a, Kind::BvUlt, Kind::BvUle) ||
           flipped(a, b, Kind::BvSlt, Kind::BvSle) ||
           flipped(b, a, Kind::BvSlt, Kind::BvSle);
}

} // namespace

Term
TermFactory::intern(Kind kind, Sort sort, std::vector<Term> operands,
                    ApInt bv_value, bool bool_value, std::string name,
                    unsigned hi, unsigned lo)
{
    NodeKey key;
    key.kind = kind;
    key.sort = sort.encode();
    key.operands.reserve(operands.size());
    for (const Term &op : operands)
        key.operands.push_back(op.id());
    key.aux0 = kind == Kind::BvConst    ? bv_value.zext()
               : kind == Kind::BoolConst ? (bool_value ? 1 : 0)
                                         : hi;
    key.aux1 = kind == Kind::BvConst ? bv_value.width() : lo;
    key.name = name;

    auto it = interned_.find(key);
    if (it != interned_.end())
        return it->second;

    nodes_.emplace_back(nextId_++, kind, sort, std::move(operands),
                        bv_value, bool_value, std::move(name), hi, lo);
    Term term(&nodes_.back());
    interned_.emplace(std::move(key), term);
    return term;
}

void
TermFactory::canonicalizeCommutative(Kind kind, Term &a, Term &b)
{
    switch (kind) {
      case Kind::BvAdd:
      case Kind::BvMul:
      case Kind::BvAnd:
      case Kind::BvOr:
      case Kind::BvXor:
      case Kind::And:
      case Kind::Or:
      case Kind::Iff:
      case Kind::Eq:
        if (b.id() < a.id())
            std::swap(a, b);
        break;
      default:
        break;
    }
}

// --- Leaves ----------------------------------------------------------------

Term
TermFactory::bvConst(ApInt value)
{
    return intern(Kind::BvConst, Sort::bitVec(value.width()), {}, value);
}

Term
TermFactory::bvConst(unsigned width, uint64_t value)
{
    return bvConst(ApInt(width, value));
}

Term
TermFactory::boolConst(bool value)
{
    return value ? true_ : false_;
}

Term
TermFactory::var(const std::string &name, Sort sort)
{
    auto [it, inserted] = varSorts_.emplace(name, sort);
    KEQ_ASSERT(inserted || it->second == sort,
               "variable " + name + " re-declared at another sort");
    return intern(Kind::Var, sort, {}, ApInt(), false, name);
}

Term
TermFactory::freshVar(const std::string &hint, Sort sort)
{
    std::string name = hint + "!" + std::to_string(freshCounter_++);
    return var(name, sort);
}

// --- Boolean layer -----------------------------------------------------------

Term
TermFactory::mkNot(Term a)
{
    KEQ_ASSERT(a.sort().isBool(), "not: non-bool operand");
    if (a.isBoolConst())
        return boolConst(!a.boolValue());
    if (a.kind() == Kind::Not)
        return a.operand(0);
    // Total-order flips keep the comparison language closed under
    // negation, so "a >u b" computed as !(a <=u b) (the x86 A/G
    // condition codes) and as ult(b, a) (the icmp route) hash-cons to
    // the same term.
    switch (a.kind()) {
      case Kind::BvUlt:
        return bvPredicate(Kind::BvUle, a.operand(1), a.operand(0));
      case Kind::BvUle:
        return bvPredicate(Kind::BvUlt, a.operand(1), a.operand(0));
      case Kind::BvSlt:
        return bvPredicate(Kind::BvSle, a.operand(1), a.operand(0));
      case Kind::BvSle:
        return bvPredicate(Kind::BvSlt, a.operand(1), a.operand(0));
      default:
        break;
    }
    return intern(Kind::Not, Sort::boolSort(), {a});
}

Term
TermFactory::mkAnd(Term a, Term b)
{
    KEQ_ASSERT(a.sort().isBool() && b.sort().isBool(), "and: non-bool");
    if (a.isTrue())
        return b;
    if (b.isTrue())
        return a;
    if (a.isFalse() || b.isFalse())
        return false_;
    if (a == b)
        return a;
    // Keep conjunction chains left-leaning and irredundant: splitting
    // b's conjuncts lets each one be checked against the whole chain,
    // so duplicated and contradictory conjuncts collapse no matter how
    // deep they sit (path conditions are built exactly this way).
    if (b.kind() == Kind::And)
        return mkAnd(mkAnd(a, b.operand(0)), b.operand(1));
    for (Term link = a;;) {
        Term conjunct = link.kind() == Kind::And ? link.operand(1) : link;
        if (conjunct == b)
            return a; // absorption
        if (areComplements(conjunct, b))
            return false_;
        if (link.kind() != Kind::And)
            break;
        link = link.operand(0);
    }
    return intern(Kind::And, Sort::boolSort(), {a, b});
}

Term
TermFactory::mkAnd(const std::vector<Term> &conjuncts)
{
    Term acc = true_;
    for (const Term &c : conjuncts)
        acc = mkAnd(acc, c);
    return acc;
}

Term
TermFactory::mkOr(Term a, Term b)
{
    KEQ_ASSERT(a.sort().isBool() && b.sort().isBool(), "or: non-bool");
    if (a.isFalse())
        return b;
    if (b.isFalse())
        return a;
    if (a.isTrue() || b.isTrue())
        return true_;
    if (a == b)
        return a;
    // Mirror of mkAnd: flatten right-side disjunctions and test each new
    // disjunct against the existing chain.
    if (b.kind() == Kind::Or)
        return mkOr(mkOr(a, b.operand(0)), b.operand(1));
    for (Term link = a;;) {
        Term disjunct = link.kind() == Kind::Or ? link.operand(1) : link;
        if (disjunct == b)
            return a; // absorption
        if (areComplements(disjunct, b))
            return true_;
        if (link.kind() != Kind::Or)
            break;
        link = link.operand(0);
    }
    // "below or equal": ult(x, y) || eq(x, y) == ule(x, y) — the x86 BE
    // condition code folds to the same term as icmp ule.
    auto strict_or_eq = [this](Term strict, Term equality) -> Term {
        if (equality.kind() != Kind::Eq)
            return Term();
        bool is_unsigned = strict.kind() == Kind::BvUlt;
        if (!is_unsigned && strict.kind() != Kind::BvSlt)
            return Term();
        Term x = strict.operand(0);
        Term y = strict.operand(1);
        Term e0 = equality.operand(0);
        Term e1 = equality.operand(1);
        if ((e0 == x && e1 == y) || (e0 == y && e1 == x)) {
            return bvPredicate(is_unsigned ? Kind::BvUle : Kind::BvSle,
                               x, y);
        }
        return Term();
    };
    if (Term merged = strict_or_eq(a, b))
        return merged;
    if (Term merged = strict_or_eq(b, a))
        return merged;
    canonicalizeCommutative(Kind::Or, a, b);
    return intern(Kind::Or, Sort::boolSort(), {a, b});
}

Term
TermFactory::mkOr(const std::vector<Term> &disjuncts)
{
    Term acc = false_;
    for (const Term &d : disjuncts)
        acc = mkOr(acc, d);
    return acc;
}

Term
TermFactory::mkImplies(Term a, Term b)
{
    return mkOr(mkNot(a), b);
}

Term
TermFactory::mkIff(Term a, Term b)
{
    KEQ_ASSERT(a.sort().isBool() && b.sort().isBool(), "iff: non-bool");
    if (a.isTrue())
        return b;
    if (b.isTrue())
        return a;
    if (a.isFalse())
        return mkNot(b);
    if (b.isFalse())
        return mkNot(a);
    if (a == b)
        return true_;
    canonicalizeCommutative(Kind::Iff, a, b);
    return intern(Kind::Iff, Sort::boolSort(), {a, b});
}

Term
TermFactory::mkIte(Term cond, Term then_t, Term else_t)
{
    KEQ_ASSERT(cond.sort().isBool(), "ite: non-bool condition");
    KEQ_ASSERT(then_t.sort() == else_t.sort(), "ite: arm sort mismatch");
    if (cond.isTrue())
        return then_t;
    if (cond.isFalse())
        return else_t;
    if (then_t == else_t)
        return then_t;
    return intern(Kind::Ite, then_t.sort(), {cond, then_t, else_t});
}

Term
TermFactory::mkEq(Term a, Term b)
{
    KEQ_ASSERT(a.sort() == b.sort(), "eq: sort mismatch");
    if (a == b)
        return true_;
    if (a.isBvConst() && b.isBvConst())
        return boolConst(a.bvValue().eq(b.bvValue()));
    if (a.isBoolConst() && b.isBoolConst())
        return boolConst(a.boolValue() == b.boolValue());
    if (a.sort().isBool())
        return mkIff(a, b);
    // eq(x - y, 0) == eq(x, y): aligns the zero-flag encoding with the
    // direct comparison.
    auto sub_vs_zero = [this](Term lhs, Term rhs) -> Term {
        if (lhs.kind() == Kind::BvSub && rhs.isBvConst() &&
            rhs.bvValue().isZero()) {
            return mkEq(lhs.operand(0), lhs.operand(1));
        }
        return Term();
    };
    if (Term folded = sub_vs_zero(a, b))
        return folded;
    if (Term folded = sub_vs_zero(b, a))
        return folded;
    // eq(ite(c, k1, k2), k) folds to c / !c / false when all three are
    // literals — this collapses the flag/SETcc encodings of branch
    // conditions back to the branch predicate, letting both languages'
    // path conditions hash-cons to the same term.
    auto fold_ite_eq = [this](Term ite, Term lit) -> Term {
        if (ite.kind() != Kind::Ite || !lit.isBvConst())
            return Term();
        Term then_t = ite.operand(1);
        Term else_t = ite.operand(2);
        if (!then_t.isBvConst() || !else_t.isBvConst() ||
            then_t == else_t) {
            return Term();
        }
        if (lit == then_t)
            return ite.operand(0);
        if (lit == else_t)
            return mkNot(ite.operand(0));
        return false_;
    };
    if (Term folded = fold_ite_eq(a, b))
        return folded;
    if (Term folded = fold_ite_eq(b, a))
        return folded;
    canonicalizeCommutative(Kind::Eq, a, b);
    return intern(Kind::Eq, Sort::boolSort(), {a, b});
}

// --- Bitvector layer ----------------------------------------------------------

namespace {

ApInt
foldBvBinOp(Kind kind, ApInt a, ApInt b)
{
    switch (kind) {
      case Kind::BvAdd: return a.add(b);
      case Kind::BvSub: return a.sub(b);
      case Kind::BvMul: return a.mul(b);
      case Kind::BvUDiv: return a.udiv(b);
      case Kind::BvSDiv: return a.sdiv(b);
      case Kind::BvURem: return a.urem(b);
      case Kind::BvSRem: return a.srem(b);
      case Kind::BvAnd: return a.and_(b);
      case Kind::BvOr: return a.or_(b);
      case Kind::BvXor: return a.xor_(b);
      case Kind::BvShl: return a.shl(b);
      case Kind::BvLShr: return a.lshr(b);
      case Kind::BvAShr: return a.ashr(b);
      default:
        KEQ_ASSERT(false, "foldBvBinOp: not a binary bv op");
    }
    return a;
}

bool
foldBvPredicate(Kind kind, ApInt a, ApInt b)
{
    switch (kind) {
      case Kind::BvUlt: return a.ult(b);
      case Kind::BvUle: return a.ule(b);
      case Kind::BvSlt: return a.slt(b);
      case Kind::BvSle: return a.sle(b);
      default:
        KEQ_ASSERT(false, "foldBvPredicate: not a bv predicate");
    }
    return false;
}

bool
isDivisionKind(Kind kind)
{
    return kind == Kind::BvUDiv || kind == Kind::BvSDiv ||
           kind == Kind::BvURem || kind == Kind::BvSRem;
}

} // namespace

Term
TermFactory::bvBinOp(Kind kind, Term a, Term b)
{
    KEQ_ASSERT(a.sort().isBitVec() && a.sort() == b.sort(),
               "bv binop: sort mismatch");
    unsigned width = a.sort().width();

    // Constant folding (division by a zero constant stays symbolic; the
    // semantics layers guard divisions with explicit UB branches).
    if (a.isBvConst() && b.isBvConst() &&
        !(isDivisionKind(kind) && b.bvValue().isZero())) {
        return bvConst(foldBvBinOp(kind, a.bvValue(), b.bvValue()));
    }

    // Identity / absorbing elements.
    if (b.isBvConst()) {
        ApInt bv = b.bvValue();
        if (bv.isZero()) {
            switch (kind) {
              case Kind::BvAdd:
              case Kind::BvSub:
              case Kind::BvOr:
              case Kind::BvXor:
              case Kind::BvShl:
              case Kind::BvLShr:
              case Kind::BvAShr:
                return a;
              case Kind::BvMul:
              case Kind::BvAnd:
                return b;
              default:
                break;
            }
        }
        if (kind == Kind::BvMul && bv.zext() == 1)
            return a;
        if ((kind == Kind::BvUDiv || kind == Kind::BvSDiv) &&
            bv.zext() == 1) {
            return a;
        }
        if (kind == Kind::BvAnd && bv.isAllOnes())
            return a;
        if (kind == Kind::BvOr && bv.isAllOnes())
            return b;
    }
    if (a.isBvConst()) {
        ApInt av = a.bvValue();
        if (av.isZero()) {
            switch (kind) {
              case Kind::BvAdd:
              case Kind::BvOr:
              case Kind::BvXor:
                return b;
              case Kind::BvMul:
              case Kind::BvAnd:
              case Kind::BvShl:
              case Kind::BvLShr:
              case Kind::BvAShr:
                return a;
              default:
                break;
            }
        }
        if (kind == Kind::BvMul && av.zext() == 1)
            return b;
        if (kind == Kind::BvAnd && av.isAllOnes())
            return b;
        if (kind == Kind::BvOr && av.isAllOnes())
            return a;
    }
    if (a == b) {
        if (kind == Kind::BvSub || kind == Kind::BvXor)
            return bvConst(width, 0);
        if (kind == Kind::BvAnd || kind == Kind::BvOr)
            return a;
    }

    // Distribute over ite: shared-condition ites merge; a constant-armed
    // ite pushes the operation into its arms (where identities usually
    // collapse them). This normalizes branchless select encodings (the
    // NEG/NOT/AND/OR mask idiom) back to ite form, so both languages'
    // terms hash-cons equal and the solver never sees the masks.
    auto const_armed = [](Term t) {
        return t.kind() == Kind::Ite && t.operand(1).isBvConst() &&
               t.operand(2).isBvConst();
    };
    if (a.kind() == Kind::Ite && b.kind() == Kind::Ite &&
        a.operand(0) == b.operand(0)) {
        return mkIte(a.operand(0),
                     bvBinOp(kind, a.operand(1), b.operand(1)),
                     bvBinOp(kind, a.operand(2), b.operand(2)));
    }
    if (const_armed(a)) {
        return mkIte(a.operand(0), bvBinOp(kind, a.operand(1), b),
                     bvBinOp(kind, a.operand(2), b));
    }
    if (const_armed(b)) {
        return mkIte(b.operand(0), bvBinOp(kind, a, b.operand(1)),
                     bvBinOp(kind, a, b.operand(2)));
    }

    canonicalizeCommutative(kind, a, b);
    return intern(kind, Sort::bitVec(width), {a, b});
}

Term
TermFactory::bvNot(Term a)
{
    KEQ_ASSERT(a.sort().isBitVec(), "bvnot: non-bitvec");
    if (a.isBvConst())
        return bvConst(a.bvValue().not_());
    if (a.kind() == Kind::BvNot)
        return a.operand(0);
    if (a.kind() == Kind::Ite) {
        return mkIte(a.operand(0), bvNot(a.operand(1)),
                     bvNot(a.operand(2)));
    }
    return intern(Kind::BvNot, a.sort(), {a});
}

Term
TermFactory::bvNeg(Term a)
{
    KEQ_ASSERT(a.sort().isBitVec(), "bvneg: non-bitvec");
    if (a.isBvConst())
        return bvConst(a.bvValue().neg());
    if (a.kind() == Kind::BvNeg)
        return a.operand(0);
    if (a.kind() == Kind::Ite) {
        return mkIte(a.operand(0), bvNeg(a.operand(1)),
                     bvNeg(a.operand(2)));
    }
    return intern(Kind::BvNeg, a.sort(), {a});
}

Term
TermFactory::bvPredicate(Kind kind, Term a, Term b)
{
    if (kind == Kind::Eq)
        return mkEq(a, b);
    KEQ_ASSERT(a.sort().isBitVec() && a.sort() == b.sort(),
               "bv predicate: sort mismatch");
    if (a.isBvConst() && b.isBvConst())
        return boolConst(foldBvPredicate(kind, a.bvValue(), b.bvValue()));
    if (a == b) {
        // x < x is false; x <= x is true.
        if (kind == Kind::BvUlt || kind == Kind::BvSlt)
            return false_;
        return true_;
    }
    // Distribute over constant-armed / shared-condition ites (see
    // bvBinOp) so comparisons of select results normalize.
    auto const_armed = [](Term t) {
        return t.kind() == Kind::Ite && t.operand(1).isBvConst() &&
               t.operand(2).isBvConst();
    };
    if (a.kind() == Kind::Ite && b.kind() == Kind::Ite &&
        a.operand(0) == b.operand(0)) {
        return mkIte(a.operand(0),
                     bvPredicate(kind, a.operand(1), b.operand(1)),
                     bvPredicate(kind, a.operand(2), b.operand(2)));
    }
    if (const_armed(a)) {
        return mkIte(a.operand(0),
                     bvPredicate(kind, a.operand(1), b),
                     bvPredicate(kind, a.operand(2), b));
    }
    if (const_armed(b)) {
        return mkIte(b.operand(0), bvPredicate(kind, a, b.operand(1)),
                     bvPredicate(kind, a, b.operand(2)));
    }
    return intern(kind, Sort::boolSort(), {a, b});
}

Term
TermFactory::zext(Term a, unsigned new_width)
{
    KEQ_ASSERT(a.sort().isBitVec(), "zext: non-bitvec");
    KEQ_ASSERT(new_width >= a.sort().width(), "zext narrows");
    if (new_width == a.sort().width())
        return a;
    if (a.isBvConst())
        return bvConst(a.bvValue().zextTo(new_width));
    // Push extension through constant-armed ite (normalizes SETcc/zext
    // encodings across languages).
    if (a.kind() == Kind::Ite && a.operand(1).isBvConst() &&
        a.operand(2).isBvConst()) {
        return mkIte(a.operand(0), zext(a.operand(1), new_width),
                     zext(a.operand(2), new_width));
    }
    // zext of zext composes.
    if (a.kind() == Kind::ZExt)
        return zext(a.operand(0), new_width);
    return intern(Kind::ZExt, Sort::bitVec(new_width), {a}, ApInt(), false,
                  {}, new_width, 0);
}

Term
TermFactory::sext(Term a, unsigned new_width)
{
    KEQ_ASSERT(a.sort().isBitVec(), "sext: non-bitvec");
    KEQ_ASSERT(new_width >= a.sort().width(), "sext narrows");
    if (new_width == a.sort().width())
        return a;
    if (a.isBvConst())
        return bvConst(a.bvValue().sextTo(new_width));
    if (a.kind() == Kind::Ite && a.operand(1).isBvConst() &&
        a.operand(2).isBvConst()) {
        return mkIte(a.operand(0), sext(a.operand(1), new_width),
                     sext(a.operand(2), new_width));
    }
    if (a.kind() == Kind::SExt)
        return sext(a.operand(0), new_width);
    return intern(Kind::SExt, Sort::bitVec(new_width), {a}, ApInt(), false,
                  {}, new_width, 0);
}

Term
TermFactory::extract(Term a, unsigned hi, unsigned lo)
{
    KEQ_ASSERT(a.sort().isBitVec(), "extract: non-bitvec");
    KEQ_ASSERT(hi >= lo && hi < a.sort().width(), "extract: bad range");
    unsigned width = hi - lo + 1;
    if (width == a.sort().width())
        return a;
    if (a.isBvConst()) {
        ApInt shifted =
            a.bvValue().lshr(ApInt(a.bvValue().width(), lo));
        return bvConst(shifted.truncTo(width));
    }
    // extract of zext: fully below the original width -> extract there;
    // fully above -> zero.
    if (a.kind() == Kind::ZExt) {
        Term inner = a.operand(0);
        unsigned iw = inner.sort().width();
        if (hi < iw)
            return extract(inner, hi, lo);
        if (lo >= iw)
            return bvConst(width, 0);
    }
    // extract of concat: route into one side when possible.
    if (a.kind() == Kind::Concat) {
        Term high = a.operand(0);
        Term low = a.operand(1);
        unsigned lw = low.sort().width();
        if (hi < lw)
            return extract(low, hi, lo);
        if (lo >= lw)
            return extract(high, hi - lw, lo - lw);
    }
    // extract of extract composes.
    if (a.kind() == Kind::Extract) {
        return extract(a.operand(0), a.extractLo() + hi,
                       a.extractLo() + lo);
    }
    // Push extraction through constant-armed ite (see zext).
    if (a.kind() == Kind::Ite && a.operand(1).isBvConst() &&
        a.operand(2).isBvConst()) {
        return mkIte(a.operand(0), extract(a.operand(1), hi, lo),
                     extract(a.operand(2), hi, lo));
    }
    return intern(Kind::Extract, Sort::bitVec(width), {a}, ApInt(), false,
                  {}, hi, lo);
}

Term
TermFactory::trunc(Term a, unsigned new_width)
{
    KEQ_ASSERT(new_width <= a.sort().width(), "trunc widens");
    if (new_width == a.sort().width())
        return a;
    return extract(a, new_width - 1, 0);
}

Term
TermFactory::concat(Term high, Term low)
{
    KEQ_ASSERT(high.sort().isBitVec() && low.sort().isBitVec(),
               "concat: non-bitvec");
    unsigned width = high.sort().width() + low.sort().width();
    KEQ_ASSERT(width <= 64, "concat: width exceeds 64 bits");
    if (high.isBvConst() && low.isBvConst()) {
        uint64_t bits = (high.bvValue().zext() << low.sort().width()) |
                        low.bvValue().zext();
        return bvConst(width, bits);
    }
    // concat(0, x) == zext(x).
    if (high.isBvConst() && high.bvValue().isZero())
        return zext(low, width);
    // Reassemble adjacent extracts of the same base term.
    if (high.kind() == Kind::Extract && low.kind() == Kind::Extract &&
        high.operand(0) == low.operand(0) &&
        high.extractLo() == low.extractHi() + 1) {
        return extract(high.operand(0), high.extractHi(), low.extractLo());
    }
    // Sign replication: concat(sext(low[msb]), low) == sext(low). This
    // is the CDQ/CQO pattern: the high half is the sign of the low half
    // replicated.
    if (high.kind() == Kind::SExt) {
        Term sign = high.operand(0);
        unsigned low_width = low.sort().width();
        if (sign.kind() == Kind::Extract &&
            sign.operand(0) == low &&
            sign.extractHi() == low_width - 1 &&
            sign.extractLo() == low_width - 1) {
            return sext(low, width);
        }
    }
    return intern(Kind::Concat, Sort::bitVec(width), {high, low});
}

// --- Memory arrays -------------------------------------------------------------

Term
TermFactory::select(Term array, Term index)
{
    KEQ_ASSERT(array.sort().isMemArray(), "select: non-array");
    KEQ_ASSERT(index.sort() == Sort::bitVec(64), "select: index not bv64");

    // Walk the store chain: select(store(m, i, v), j) is v when i == j
    // syntactically and select(m, j) when i and j are provably distinct
    // constants. This makes concrete-address memory traffic (the common
    // case in -O0 code) collapse without SMT involvement.
    Term current = array;
    while (current.kind() == Kind::Store) {
        Term stored_index = current.operand(1);
        if (stored_index == index)
            return current.operand(2);
        if (stored_index.isBvConst() && index.isBvConst())
            current = current.operand(0);
        else
            break;
    }
    return intern(Kind::Select, Sort::bitVec(8), {current, index});
}

Term
TermFactory::store(Term array, Term index, Term value)
{
    KEQ_ASSERT(array.sort().isMemArray(), "store: non-array");
    KEQ_ASSERT(index.sort() == Sort::bitVec(64), "store: index not bv64");
    KEQ_ASSERT(value.sort() == Sort::bitVec(8), "store: value not bv8");

    // store(store(m, i, v1), i, v2) == store(m, i, v2).
    if (array.kind() == Kind::Store && array.operand(1) == index)
        return store(array.operand(0), index, value);
    // Redundant store of the value already present.
    if (value.kind() == Kind::Select && value.operand(0) == array &&
        value.operand(1) == index) {
        return array;
    }
    return intern(Kind::Store, Sort::memArray(), {array, index, value});
}

Term
TermFactory::readBytes(Term array, Term address, unsigned num_bytes)
{
    KEQ_ASSERT(num_bytes >= 1 && num_bytes <= 8, "readBytes: bad size");
    Term result;
    for (unsigned i = 0; i < num_bytes; ++i) {
        Term idx = bvAdd(address, bvConst(64, i));
        Term byte = select(array, idx);
        result = (i == 0) ? byte : concat(byte, result);
    }
    return result;
}

Term
TermFactory::writeBytes(Term array, Term address, Term value,
                        unsigned num_bytes)
{
    KEQ_ASSERT(num_bytes >= 1 && num_bytes <= 8, "writeBytes: bad size");
    KEQ_ASSERT(value.sort() == Sort::bitVec(8 * num_bytes),
               "writeBytes: value width mismatch");
    Term current = array;
    for (unsigned i = 0; i < num_bytes; ++i) {
        Term idx = bvAdd(address, bvConst(64, i));
        Term byte = extract(value, 8 * i + 7, 8 * i);
        current = store(current, idx, byte);
    }
    return current;
}

} // namespace keq::smt
