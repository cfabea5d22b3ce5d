package main

// endToEndNames are the metrics every untraced run reports, whatever
// the workload: each is what a user of that workload sees, under a
// workload-neutral name (BENCHMARK.json lists them; layers.json maps
// each to the workload's own name, such as analyze.p90_ms).
var endToEndNames = []string{
	"setup_s",
	"op.p50_ms",
	"op.p90_ms",
	"kloc_s",
	"ok_share",
	"peak_heap_mb",
	"subst_total",
}

// perLayerNames are the metrics every traced run reports.
var perLayerNames = func() []string {
	var out []string
	// cold-corpus: the six analysis layers per size class.
	for _, l := range layerNames {
		for _, kind := range []string{"ms_per_kloc", "allocs_per_kloc"} {
			for _, cl := range classes {
				out = append(out, l+"."+kind+"."+cl)
			}
		}
	}
	out = append(out,
		"solve.jf_evals",
		"analyze.kloc_s", "analyze.p50_ms", "analyze.p90_ms", "analyze.peak_heap_mb", "analyze.subst_total",
		"trace.overhead_pct.cold",
		// daemon-edits.
		"session.edit_ms.blast1", "session.edit_ms.blast_mid", "session.edit_ms.blast_wide",
		"session.rebuild_ms", "session.result_ms",
		"session.fast_path_share", "session.blast_units_mean", "session.context_hit_ratio",
		"session.jump_reuse_ratio", "session.subst_reuse_ratio", "session.bytes",
		"edit.p50_ms", "edit.p99_ms", "session.resident_mb",
		"trace.overhead_pct.daemon",
		// service-mix.
		"coord.hop_ms.p50", "coord.hop_ms.p99",
		"backend.handler_ms.hit", "backend.handler_ms.edit", "backend.handler_ms.novel",
		"result_cache.hit_ratio", "backend.analysis_ms_per_req",
	)
	for _, l := range layerNames {
		out = append(out, "backend.phase_ms."+l)
	}
	out = append(out, "backend.phase_ms.lookup")
	out = append(out,
		"analysis_cache.hit_ratio", "serve.shed_share",
		"jobs.submit_ms", "jobs.wal_fsync_us", "jobs.queue_ms",
		"coord.hedges_per_kreq", "coord.reroutes_per_kreq", "gen.late_ms.p99",
		"serve.lo.p50_ms", "serve.lo.p99_ms", "serve.hi.p50_ms", "serve.hi.p99_ms",
		"serve.ok_share", "job.p50_ms",
		"trace.overhead_pct.service",
	)
	return out
}()
