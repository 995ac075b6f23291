"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; `selftest.py` checks that the two
agree and that a run emits every one of them.
"""

STAGES = ("simulate", "estimate", "segment", "render", "evaluate")

# (name, unit, better); reported with --trace 0, tracing off. The single stage
# times are per-layer metrics: on a shared host their run-to-run spread
# exceeds any bound the benchmark may set, while their sum stays within it.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("purity", "fraction", "higher"),
    ("classified_fraction", "fraction", "higher"),
]

# artifact files of one CLI pipeline run, by group; globs relative to out_dir
ARTIFACT_FILES = {
    "config": "config.txt",
    "scene": "scene.txt",
    "materials": "materials.txt",
    "trajectory": "trajectory.txt",
    "ir_observations": "ir_observations.txt",
    "rgb_observations": "rgb_observations.txt",
    "colors": "colors.txt",
    "records": "records.npz",
    "labels": "labels.txt",
    "report": "report.txt",
    "material_brdf": "material_*.brdf",
    "sphere_ppm": "sphere_*.ppm",
    "rerender_ppm": "rerender.ppm",
}

# (name, unit, better); reported with --trace 1 from the traced iterations
PER_LAYER = [
    ("io.read_records_s", "s", "lower"),
    ("io.read_records_calls", "count", "lower"),
    ("io.write_observations_s", "s", "lower"),
    ("io.read_observations_s", "s", "lower"),
    ("io.write_records_s", "s", "lower"),
    ("io.other_s", "s", "lower"),
    ("io.observations_bytes", "B", "lower"),
    ("io.records_bytes", "B", "lower"),
    ("io.artifact_mb", "MB", "lower"),
    *[(f"io.bytes.{group}", "B", "lower") for group in ARTIFACT_FILES],
    ("simulator.simulate_scan_s", "s", "lower"),
    ("simulator.ir_observations", "count", "higher"),
    ("simulator.rgb_observations", "count", "higher"),
    ("estimation.estimate_colors_s", "s", "lower"),
    ("estimation.invert_observation_arrays_s", "s", "lower"),
    ("estimation.accumulate_self_s", "s", "lower"),
    ("estimation.accept_ratio", "fraction", "higher"),
    ("estimation.records", "count", "higher"),
    ("estimation.table_cells", "count", "higher"),
    ("segmentation.meanshift_s", "s", "lower"),
    ("segmentation.meanshift_calls", "count", "lower"),
    ("segmentation.meanshift_points", "count", "lower"),
    ("segmentation.meanshift_max_points", "count", "lower"),
    ("segmentation.initial_clusters_self_s", "s", "lower"),
    ("segmentation.propagate_self_s", "s", "lower"),
    ("segmentation.build_global_table_s", "s", "lower"),
    ("segmentation.diffuse_labels_s", "s", "lower"),
    ("segmentation.cells", "count", "higher"),
    ("brdf_table.from_cells_s", "s", "lower"),
    ("brdf_table.from_cells_calls", "count", "lower"),
    ("brdf_table.merge_s", "s", "lower"),
    ("brdf_table.merge_calls", "count", "lower"),
    ("brdf_table.complete_s", "s", "lower"),
    ("brdf_table.to_text_s", "s", "lower"),
    ("brdf_table.lookup_arrays_s", "s", "lower"),
    ("render_eval.render_material_sphere_s", "s", "lower"),
    ("render_eval.rerender_ir_frame_s", "s", "lower"),
    ("render_eval.write_ppm_s", "s", "lower"),
    ("render_eval.evaluate_s", "s", "lower"),
    ("render_eval.brdf_rmse_mean", "1/sr", "lower"),
    ("geometry.helpers_s", "s", "lower"),
    # untraced stage times, from the untraced iterations of the traced run
    *[(f"{stage}_s", "s", "lower") for stage in STAGES],
    *[(f"cli.{stage}.self_s", "s", "lower") for stage in STAGES],
    ("trace.pipeline_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
