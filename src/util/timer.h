/**
 * @file
 * The wall-clock stopwatch behind every measured time (the per-phase
 * ledger of Figs. 5 and 11 is obs::PhaseTimes).
 */
#pragma once

#include <chrono>

namespace buffalo::util {

/** A restartable wall-clock stopwatch with nanosecond resolution. */
class StopWatch
{
  public:
    StopWatch() { reset(); }

    /** Restarts the watch at zero. */
    void reset() { start_ = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    /** Milliseconds elapsed since construction or the last reset(). */
    double milliseconds() const { return seconds() * 1e3; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

} // namespace buffalo::util
