"""What each metric means, and which end-to-end metric each per-layer
metric should move on which workload. Units, direction and bounds live in
BENCHMARK.json; ``python3 perfbench/run.py --list`` prints both together.

Per-layer metrics are per set-up plus one timed pass: sums over each
traced set-up (or pass) window, averaged over the windows of that kind.
"""

MEANINGS = {
    # end to end (untraced run)
    "setup_s": "set-up time, median of the run's set-ups; cli-tour: 3 fresh "
               "processes importing fsqubit.cli; mc-*: import, then 2 x "
               "(config check + table + build_field + magic angle + "
               "characterize_trap)",
    "wall_s": "wall time of one timed pass (median over the run's passes): "
              "a 5-command CLI tour, a 21-angle scan, or 3 long traces",
    "cold_start_s": "wall time of a fresh-process command that builds no "
                    "field (median): cli-tour magic-find, validate and fit; "
                    "mc-* a validate before each set-up and one at the end",
    "trials_per_s": "Monte-Carlo trials of one pass over wall_s; on "
                    "cli-tour the t2 command's trials, so the field build "
                    "dominates it there",
    "peak_rss_mb": "peak resident set size; cli-tour the maximum over the "
                   "child processes, mc-* the benchmark process (set-up "
                   "included)",
    # per layer (traced run)
    "cli.import_s": "import of fsqubit.cli (numpy and scipy included)",
    "cli.check_config_s": "time in cli.check_config",
    "cli.interpreter_s": "CLI child time outside import and main: "
                         "interpreter start-up and tear-down",
    "cli.main_s": "time in cli.main",
    "cli.self_s": "time in cli.main not covered by its child layer spans",
    "cli.bytes_written": "bytes of artifacts the CLI commands wrote",
    "cli.commands": "CLI commands run",
    "atomstark.load_table_s": "time in load_table",
    "atomstark.magic_angle_s": "time in find_magic_angle",
    "atomstark.magic_wavelength_s": "time in find_magic_wavelength",
    "atomstark.shift_evals": "calls to differential_light_shift",
    "focalfield.build_field_s": "time in build_field",
    "focalfield.calibrate_s": "time in calibrate_filling_factor",
    "focalfield.measure_waist_calls": "calls to measure_waist",
    "focalfield.normalize_s": "build_field self time plus its direct "
                              "field_at children: the power-normalization "
                              "grid",
    "focalfield.field_at_calls": "calls to TweezerField.field_at",
    "focalfield.field_at_points": "points evaluated by field_at",
    "focalfield.field_at_s": "time in field_at",
    "focalfield.points_per_s": "field_at points per second in field_at",
    "focalfield.lightshift_map_s": "time in lightshift_map",
    "focalfield.write_map_s": "time in write_map_csv",
    "trapmodel.characterize_s": "time in characterize_trap",
    "trapmodel.characterize_calls": "calls to characterize_trap",
    "trapmodel.sample_calls": "per-trial trapmodel calls made by dynamics "
                              "(samplers, sample constructors, detuning)",
    "trapmodel.sample_s": "time in those per-trial calls",
    "dynamics.simulate_s": "time in simulate_ramsey and simulate_echo",
    "dynamics.trials": "trials simulated",
    "dynamics.trial_points": "trials times time-grid points simulated",
    "dynamics.us_per_trial": "simulate time per trial",
    "dynamics.ns_per_trial_point": "simulate time per trial and grid point",
    "dynamics.write_trace_s": "time in write_trace_csv",
    "analysis.extract_contrast_s": "time in extract_contrast",
    "analysis.window_fits": "contrast windows fitted by extract_contrast",
    "analysis.fit_envelope_s": "time in fit_t2_envelope",
    "analysis.fit_envelope_calls": "calls to fit_t2_envelope",
    "trace.coverage": "share of traced wall time under a top-level layer "
                      "span; flagged below 0.95",
    "trace.overhead_s": "median traced minus median untraced pass wall time",
}

# (per-layer group, end-to-end metric it should move, workload, note)
PREDICTIONS = [
    ("cli.*", "cold_start_s", "cli-tour",
     "the import is about 0.6 s of a 1.05 s cold start; the import is also "
     "part of setup_s on mc-*"),
    ("atomstark.*", "cold_start_s", "cli-tour", "only, and by under 1%"),
    ("focalfield.*", "wall_s", "cli-tour",
     "and setup_s on mc-scan and mc-trace; not wall_s or trials_per_s on "
     "mc-*, where the field is built only in set-up"),
    ("trapmodel.sample_*", "trials_per_s", "mc-scan",
     "per-trial draws are about 90% of the scan"),
    ("dynamics.us_per_trial", "trials_per_s", "mc-scan", "draw-bound"),
    ("dynamics.ns_per_trial_point", "trials_per_s", "mc-trace",
     "propagation-bound; the trial-block working set moves peak_rss_mb "
     "on mc-trace"),
    ("analysis.*", "(none)", "all", "under 1% everywhere"),
]
