/**
 * @file
 * A check shared by the tests of code that charges the phase ledger:
 * which phases a call charged, on which clock, and that it charged no
 * others.
 */
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

#include "obs/phase.h"

namespace buffalo::testing_phase {

/**
 * Expects @p times to hold measured seconds in @p charged only: every
 * phase in @p charged reads more than 0 on the measured clock, every
 * other phase reads exactly 0 there, and every phase reads exactly 0
 * on the modeled clock.
 */
inline void
expectOnlyMeasured(const obs::PhaseTimes &times,
                   std::initializer_list<obs::Phase> charged)
{
    for (const obs::Phase phase : obs::kAllPhases) {
        const bool is_charged =
            std::find(charged.begin(), charged.end(), phase) !=
            charged.end();
        if (is_charged)
            EXPECT_GT(times.measured(phase), 0.0) << obs::phaseName(phase);
        else
            EXPECT_EQ(times.measured(phase), 0.0) << obs::phaseName(phase);
        EXPECT_EQ(times.modeled(phase), 0.0) << obs::phaseName(phase);
    }
}

} // namespace buffalo::testing_phase
