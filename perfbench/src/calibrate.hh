/**
 * @file
 * The host-speed probe: fixed work, owned by the benchmark and sharing
 * no code with the library, whose time tracks how fast the host runs
 * the library's kind of code at this moment.
 *
 * The benchmark runs on hosts shared with other tenants, whose load
 * changes the speed of identical work by up to 2x over minutes and in
 * bursts within a second.  Probes timed between the cells, for a fixed
 * share of each cell's time, see the same load the cells saw, so
 * rescaling cell time by probe time cancels most of the drift.  The
 * probe mimics both engines: an event loop over a small binary heap
 * with heap-allocated callbacks (the simulator), then damped
 * Gauss-Seidel sweeps over a sparse matrix the size of the largest
 * GTPN chains (the model solvers).
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

#include <cmath>

namespace perfbench
{

/**
 * Host seconds one probe took on the quiet reference host (see
 * NOTES.md): the scale that turns probe-relative times into seconds.
 */
constexpr double kProbeReferenceS = 0.019;

/**
 * How strongly the cells' time follows the probe's: under load the
 * probe slows more than the library does.  Across 40 runs of the four
 * workloads on the reference host, log pass time rose by 0.64-0.81 x
 * log probe time (see NOTES.md).
 */
constexpr double kProbeExponent = 0.7;

/**
 * @p seconds of host time measured while probes took @p probeS each,
 * rescaled to the reference host's speed.  Linear in @p seconds, so a
 * change that makes the library 10% faster lowers the result by 10%.
 */
inline double
atReferenceSpeed(double seconds, double probeS)
{
    return seconds * std::pow(kProbeReferenceS / probeS, kProbeExponent);
}

/**
 * Run one probe and return its host seconds.  The probe does the same
 * work on every call and must reproduce the same checksum; a changed
 * checksum aborts the process.
 */
double runProbe();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
