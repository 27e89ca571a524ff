"""What the benchmark measures: workloads, metrics and the layer catalogue.

This module is the benchmark's single source for names, units and better
directions; ``BENCHMARK.json`` at the repository root must list the same
workloads and metrics (``perfbench/tests`` checks it).  It imports
nothing from the program, so ``run.py`` can read it in a directory that
holds only the benchmark.

Every layer entry also records which end-to-end metric a change to that
layer should move, and on which workload: a later change that claims a
gain on one layer names its prediction from this table before it is
measured.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds of timed ops in one run.
RUN_SECONDS = 20

#: workload name -> (op definition and seed use, one-line reason).
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "fig4-hs1": (
        "set-up: the paper's HS1 world (hs1 preset) and 2 attacker accounts, "
        "no render cache, telemetry off.  One op: the enhanced+filtering "
        "attack (t=500, epsilon=1) with reverse lookup on, then off, each "
        "through a fresh CrawlClient over the same two accounts.  --seed "
        "seeds the crawl client (pacer jitter streams).",
        "Op: HS1 enhanced+filtering attack (t=500, eps=1), reverse lookup on "
        "then off; --seed seeds the crawl. The paper's core pipeline: policy "
        "path, render/parse, client, scoring",
    ),
    "recrawl-city": (
        "set-up: generate('city', seed) (1M accounts), columnar_frontend "
        "with the default RenderCache (4,096 entries), 8 session accounts.  "
        "One op: one full CrawlScheduler crawl of one school; 6 schools "
        "drawn by --seed are crawled round-robin, pass after pass.",
        "Op: engine crawl of one school of the 1M-account columnar city, 6 "
        "--seed-drawn schools round-robin under a 4,096-page cache. Pass 1 "
        "loads colgen.serve, later ones the cache and engine",
    ),
    "befriend-hs1": (
        "set-up: the HS1 world with a RenderCache and 4 attacker accounts.  "
        "One op is one round: an engine crawl of the school over the 4 "
        "accounts (in-memory Telemetry attached for the round), friend-"
        "request and message POSTs from 3 of them to the next 16 crawled "
        "seeds, and acceptance of a --seed-drawn half of the requests by "
        "the simulated targets.  The 3 senders are replaced by fresh "
        "accounts every 8 rounds; the portal harvester stays.",
        "Op: cached HS1 engine crawl with telemetry, then friend requests "
        "and messages to 16 seeds, a --seed-drawn half accepted; each accept "
        "bumps the version, so the cache is pure overhead",
    ),
}

#: (name, unit, better, bound) of every end-to-end metric.  Each is the
#: median over a run's timed ops, except set-up and peak RSS.  Host times
#: (setup_s, pages_per_s, op_s_p50) are in reference-host seconds, scaled
#: by the host speed sampled through the run (perfbench/calibration.py);
#: they get the widest bound, since the scaling leaves a few percent of
#: host noise.  The work counts are exact per seed and their bound only
#: covers the spread between seeds.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("pages_per_s", "pages/s", "higher", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("sim_s_per_op", "sim_s", "lower", 0.1),
    ("gets_per_op", "count", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: The seven end-to-end figures printed for a run; ``failed_ops`` is
#: the share of ops that raised or failed a check.  It is reported as
#: the result's ``failed``/``attempted`` counts rather than as a
#: BENCHMARK.json metric because it is 0 on a correct tree.
PRINTED_END_TO_END: List[str] = [name for name, _, _, _ in END_TO_END] + [
    "failed_ops"
]

_CLIENT_KINDS = ("seeds", "profile", "friend_list", "school", "message", "friend_request")
_SERVE_COUNTS = (
    "view_profile_calls",
    "friend_page_calls",
    "school_search_calls",
    "relationship_calls",
)

#: (layer, [(metric, unit, better)], [(end-to-end metric, workload)]).
#: Per-op metrics are means over the traced ops of a run; set-up metrics
#: are medians over the run's set-ups; ratios and percentiles are taken
#: over the whole traced run.
LAYERS: List[Tuple[str, List[Tuple[str, str, str]], List[Tuple[str, str]]]] = [
    (
        "worldgen",
        [("worldgen.build_world_s", "s", "lower")],
        [("setup_s", "fig4-hs1"), ("setup_s", "befriend-hs1")],
    ),
    (
        "colgen",
        [("colgen.generate_s", "s", "lower"), ("colgen.frontend_s", "s", "lower")],
        [("setup_s", "recrawl-city"), ("peak_rss_mb", "recrawl-city")],
    ),
    (
        "colgen.serve",
        [(f"colgen.serve.{name}", "count", "lower") for name in _SERVE_COUNTS]
        + [("colgen.serve.self_s", "s", "lower")],
        [("op_s_p50", "recrawl-city")],
    ),
    (
        "osn.network",
        [(f"osn.network.{name}", "count", "lower") for name in _SERVE_COUNTS]
        + [
            ("osn.network.self_s", "s", "lower"),
            ("osn.network.relationships_per_get", "ratio", "lower"),
            ("osn.network.write_calls", "count", "lower"),
            ("osn.network.version_bumps", "count", "lower"),
        ],
        [
            ("op_s_p50", "fig4-hs1"),
            ("pages_per_s", "fig4-hs1"),
            ("op_s_p50", "befriend-hs1"),
        ],
    ),
    (
        "osn.pages",
        [
            ("osn.pages.render_calls", "count", "lower"),
            ("osn.pages.render_s", "s", "lower"),
            ("osn.pages.render_bytes", "bytes", "lower"),
            ("osn.pages.parse_calls", "count", "lower"),
            ("osn.pages.parse_s", "s", "lower"),
        ],
        [
            ("pages_per_s", "fig4-hs1"),
            ("pages_per_s", "befriend-hs1"),
            ("pages_per_s", "recrawl-city"),
        ],
    ),
    (
        "osn.rendercache",
        [
            ("osn.rendercache.hits", "count", "higher"),
            ("osn.rendercache.misses", "count", "lower"),
            ("osn.rendercache.evictions", "count", "lower"),
            ("osn.rendercache.hit_ratio", "ratio", "higher"),
            ("osn.rendercache.lookup_s", "s", "lower"),
        ],
        [("op_s_p50", "recrawl-city"), ("op_s_p50", "befriend-hs1")],
    ),
    (
        "osn.ratelimit",
        [
            ("osn.ratelimit.checks", "count", "lower"),
            ("osn.ratelimit.rejections", "count", "lower"),
            ("osn.ratelimit.accounts_disabled", "count", "lower"),
        ],
        [
            ("sim_s_per_op", "fig4-hs1"),
            ("sim_s_per_op", "recrawl-city"),
            ("sim_s_per_op", "befriend-hs1"),
        ],
    ),
    (
        "osn.frontend",
        [
            ("osn.frontend.get_calls", "count", "lower"),
            ("osn.frontend.post_calls", "count", "lower"),
            ("osn.frontend.get_us_p50", "us", "lower"),
            ("osn.frontend.get_us_p99", "us", "lower"),
            ("osn.frontend.self_s", "s", "lower"),
        ],
        [
            ("pages_per_s", "fig4-hs1"),
            ("pages_per_s", "recrawl-city"),
            ("pages_per_s", "befriend-hs1"),
        ],
    ),
    (
        "crawler.client",
        [
            metric
            for kind in _CLIENT_KINDS
            for metric in (
                (f"crawler.client.{kind}_calls", "count", "lower"),
                (f"crawler.client.{kind}_s", "s", "lower"),
            )
        ]
        + [
            ("crawler.client.self_s", "s", "lower"),
            ("crawler.client.throttle_retries", "count", "lower"),
            ("crawler.client.useful_ratio", "ratio", "higher"),
        ],
        [("pages_per_s", "fig4-hs1")],
    ),
    (
        "crawler.engine",
        [
            ("crawler.engine.turns", "count", "lower"),
            ("crawler.engine.self_s", "s", "lower"),
            ("crawler.engine.sim_s", "sim_s", "lower"),
        ],
        [
            ("op_s_p50", "recrawl-city"),
            ("op_s_p50", "befriend-hs1"),
            ("sim_s_per_op", "recrawl-city"),
            ("sim_s_per_op", "befriend-hs1"),
        ],
    ),
    (
        "crawler.politeness",
        [("crawler.politeness.slept_sim_s", "sim_s", "lower")],
        [
            ("sim_s_per_op", "fig4-hs1"),
            ("sim_s_per_op", "recrawl-city"),
            ("sim_s_per_op", "befriend-hs1"),
        ],
    ),
    (
        "crawler.effort",
        [
            (f"crawler.effort.{kind}_requests", "count", "lower")
            for kind in ("seed", "profile", "friend_list", "other")
        ],
        [
            ("gets_per_op", "fig4-hs1"),
            ("gets_per_op", "recrawl-city"),
            ("gets_per_op", "befriend-hs1"),
        ],
    ),
    (
        "core",
        [
            ("core.profiler.run_s", "s", "lower"),
            ("core.profiler.self_s", "s", "lower"),
            ("core.scoring.score_candidates_calls", "count", "lower"),
            ("core.scoring.score_candidates_s", "s", "lower"),
            ("core.scoring.candidates", "count", "lower"),
            ("core.filtering.apply_filters_s", "s", "lower"),
            ("core.filtering.dropped", "count", "higher"),
            ("core.coreset.core_size", "count", "higher"),
        ],
        [("op_s_p50", "fig4-hs1")],
    ),
    (
        "telemetry",
        [("telemetry.events", "count", "lower"), ("telemetry.emit_s", "s", "lower")],
        [("op_s_p50", "befriend-hs1"), ("peak_rss_mb", "befriend-hs1")],
    ),
    (
        "bench",
        [
            ("bench.self_s", "s", "lower"),
            ("bench.tracing_overhead", "ratio", "lower"),
        ],
        [],
    ),
]

#: Flat (name, unit, better) list of every per-layer metric, in order.
PER_LAYER: List[Tuple[str, str, str]] = [
    metric for _, metrics, _ in LAYERS for metric in metrics
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (_, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
