// Per-layer probes of a traced run: each times calls into one layer's
// public functions on the workload's own inputs and records the result
// under the layer's metric name ("<layer>.<metric>").
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/matrix/preference_matrix.hpp"
#include "tmwia/obs/profile.hpp"

namespace perfbench {

/// Self wall seconds of every obs::Profiler zone called `name` under
/// `node` (the core.* metrics read the tower's own wall zones).
double zone_self_s(const tmwia::obs::ProfileNode& node, const std::string& name);

/// bits.dist_many_gbps: kernels::dist_many of each row against all rows.
void bits_layer(const tmwia::matrix::PreferenceMatrix& m, SpanLog& log, Result& out);

/// billboard.probe_ns / billboard.probe_block_ns on `oracle` with
/// whatever hooks the caller attached (auditor, global recorder), per
/// probed object; probe_block runs blocks of 64 objects.
void probe_layer(tmwia::billboard::ProbeOracle& oracle, std::uint64_t seed, SpanLog& log,
                 Result& out);

/// billboard.post_ns / posters_ns / popular_ns: replays a run's board
/// (its channels, poster counts and vectors) into fresh billboards,
/// timing each post and the first posters()/popular() read of each
/// channel.
void billboard_layer(const std::vector<tmwia::billboard::Billboard::ChannelDump>& channels,
                     SpanLog& log, Result& out);

/// engine.fork_join_us: an empty-body engine::parallel_for of `trips`
/// elements at the default grain.
void engine_layer(std::size_t trips, SpanLog& log, Result& out);

/// Write the span log to opt.trace_out when one was given.
void write_trace(const Options& opt, const SpanLog& log);

}  // namespace perfbench
