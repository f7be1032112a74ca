/**
 * @file
 * The SIMD lanes a bitwise sweep covers (DESIGN.md, "Compute
 * kernels"): the scalar path, and every wide build this CPU runs — 8
 * and 16 lanes on an AVX-512 host — not only the widest one that the
 * default dispatch picks.
 */
#pragma once

#include <string>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/kernels_wide.h"

namespace buffalo::testing_simd {

/** One point of a sweep: a SIMD mode at a lane width (Off runs at 1;
 *  Auto at the default pick, width 0). */
struct SimdLane
{
    tensor::kernels::SimdMode mode;
    std::size_t width;
};

/** Off, then SimdMode::On at every width above 1 the CPU runs;
 *  @p with_auto adds Auto at the default pick after Off. */
inline std::vector<SimdLane>
sweepLanes(bool with_auto = false)
{
    using tensor::kernels::SimdMode;
    std::vector<SimdLane> lanes = {{SimdMode::Off, 1}};
    if (with_auto)
        lanes.push_back({SimdMode::Auto, 0});
    for (std::size_t width : tensor::kernels::wide::runnableWidths())
        if (width > 1)
            lanes.push_back({SimdMode::On, width});
    return lanes;
}

/** Installs @p cfg with @p lane's mode, dispatching at its width. */
inline void
setConfigAt(tensor::kernels::KernelConfig cfg, const SimdLane &lane)
{
    const bool forced = lane.mode == tensor::kernels::SimdMode::On;
    tensor::kernels::wide::selectWidth(forced ? lane.width : 0);
    cfg.simd = lane.mode;
    tensor::kernels::setConfig(cfg);
}

/** Back to the process default: the default config at the widest
 *  build. */
inline void
resetDispatch()
{
    tensor::kernels::wide::selectWidth(0);
    tensor::kernels::setConfig({});
}

/** "off", "auto" or "on/16", for failure messages. */
inline std::string
laneName(const SimdLane &lane)
{
    std::string name = tensor::kernels::simdModeName(lane.mode);
    if (lane.mode == tensor::kernels::SimdMode::On) {
        name += '/';
        name += std::to_string(lane.width);
    }
    return name;
}

} // namespace buffalo::testing_simd
