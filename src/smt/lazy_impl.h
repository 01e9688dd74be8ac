#ifndef KEQ_SMT_LAZY_IMPL_H
#define KEQ_SMT_LAZY_IMPL_H

/**
 * @file
 * Pimpl created on first use, for the Z3 backends.
 *
 * A z3::context costs milliseconds to build and tear down, and a
 * validation whose queries all resolve above the backend (rewrites,
 * slicing, the query cache, a warm verdict store) never needs one. The
 * backends therefore hold their Z3 state in a LazyImpl, create it on
 * the first checkSat, and may drop it after a Z3 exception so the next
 * query starts from a clean context. The one cross-thread access a
 * backend allows — interruptQuery() from the guard's watchdog — goes
 * through ifCreated(), which a mutex orders against creation and
 * reset. An interrupt that arrives before creation has nothing to
 * stop; the watchdog re-fires until the query returns, so none is
 * lost.
 */

#include <memory>
#include <mutex>

namespace keq::smt {

template <typename T>
class LazyImpl
{
  public:
    /** Owner thread only: the instance, created on first call. */
    T &
    get()
    {
        // Only the owner thread writes ptr_, so its unlocked read here
        // cannot race; the lock publishes the write to ifCreated().
        if (ptr_ == nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            ptr_ = std::make_unique<T>();
        }
        return *ptr_;
    }

    /** Owner thread only: destroys the instance; the next get()
     *  builds a fresh one. */
    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ptr_.reset();
    }

    /** Any thread: applies @p fn to the instance if it exists yet. */
    template <typename Fn>
    void
    ifCreated(Fn &&fn)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (ptr_ != nullptr)
            fn(*ptr_);
    }

  private:
    std::mutex mutex_;
    std::unique_ptr<T> ptr_;
};

} // namespace keq::smt

#endif // KEQ_SMT_LAZY_IMPL_H
