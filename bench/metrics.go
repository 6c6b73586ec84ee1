package main

// metricDef declares one metric: BENCHMARK.json lists exactly these
// (bench_test.go holds the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are the end-to-end metrics, measured in untraced runs.
// Bound is the share of the reference median by which a metric may get
// worse before it counts as a regression; two runs of the same code
// must agree within it. Every workload reports every one of them: an
// "update" is one device brought to the target version in the fleet
// workloads and one update image prepared in prepare-churn, where the
// origin is the update server itself.
var e2eMetrics = []metricDef{
	{"updates_per_s", "1/s", "higher", 0.10},
	{"update_p50_ms", "ms", "lower", 0.10},
	{"update_tail_ms", "ms", "lower", 0.15},
	{"origin_egress_b_per_update", "B", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// layerMetrics are the per-layer metrics, named <internal package>.<what>.
// The first block comes from the traced run (spans the benchmark records
// around its own calls, plus the layers' public counters); the second
// from the layer probes (probes.go). A metric that does not apply to a
// workload reads 0 there.
var layerMetrics = []metricDef{
	{Name: "device.virtual_s_per_update", Unit: "sim_s", Better: "lower"},
	{Name: "fleet.idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "coap.exchanges_per_update", Unit: "count", Better: "lower"},
	{Name: "coap.exchange_self_us", Unit: "us", Better: "lower"},
	{Name: "coap.origin_requests_per_update", Unit: "count", Better: "lower"},
	{Name: "coap.origin_handle_us", Unit: "us", Better: "lower"},
	{Name: "coap.retransmissions", Unit: "count", Better: "lower"},
	{Name: "transport.link_b_per_update", Unit: "B", Better: "lower"},
	{Name: "transport.goodput_frac", Unit: "ratio", Better: "higher"},
	{Name: "proxy.handle_self_us", Unit: "us", Better: "lower"},
	{Name: "proxy.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "proxy.fills", Unit: "count", Better: "lower"},
	{Name: "dist.shared_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dist.private_evictions", Unit: "count", Better: "lower"},
	{Name: "agent.receive_self_ms", Unit: "ms", Better: "lower"},
	{Name: "bootloader.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "flash.written_b_per_update", Unit: "B", Better: "lower"},
	{Name: "flash.erases_per_update", Unit: "count", Better: "lower"},
	{Name: "flash.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "updateserver.prepare_us", Unit: "us", Better: "lower"},
	{Name: "updateserver.diff_computations", Unit: "count", Better: "lower"},
	{Name: "updateserver.patch_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "updateserver.patch_waits", Unit: "count", Better: "lower"},
	{Name: "updateserver.disk_hits", Unit: "count", Better: "higher"},
	{Name: "updateserver.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "vendorserver.build_ms", Unit: "ms", Better: "lower"},
	{Name: "device.heap_kb", Unit: "KB", Better: "lower"},
	{Name: "device.build_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.closure_frac", Unit: "ratio", Better: "lower"},

	{Name: "security.sign_us", Unit: "us", Better: "lower"},
	{Name: "security.verify_us", Unit: "us", Better: "lower"},
	{Name: "security.encrypt_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "security.decrypt_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "verifier.manifest_us", Unit: "us", Better: "lower"},
	{Name: "verifier.firmware_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "lzss.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "lzss.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "bsdiff.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "bsdiff.apply_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "pipeline.full_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "pipeline.diff_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "pipeline.diff_enc_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "pipeline.write_allocs", Unit: "count", Better: "lower"},
	{Name: "flash.program_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "flash.erase_us", Unit: "us", Better: "lower"},
	{Name: "slot.safeswap_ms", Unit: "ms", Better: "lower"},
	{Name: "bootloader.boot_noupdate_ms", Unit: "ms", Better: "lower"},
	{Name: "coap.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "coap.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "coap.codec_allocs", Unit: "count", Better: "lower"},
	{Name: "coap.image_block_ns", Unit: "ns", Better: "lower"},
	{Name: "coap.image_block_allocs", Unit: "count", Better: "lower"},
	{Name: "coap.named_block_ns", Unit: "ns", Better: "lower"},
	{Name: "coap.named_block_allocs", Unit: "count", Better: "lower"},
	{Name: "proxy.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "proxy.hit_allocs", Unit: "count", Better: "lower"},
	{Name: "dist.block_ns", Unit: "ns", Better: "lower"},
	{Name: "dist.put_us", Unit: "us", Better: "lower"},
	{Name: "updateserver.prepare_warm_us", Unit: "us", Better: "lower"},
	{Name: "updateserver.prepare_warm_allocs", Unit: "count", Better: "lower"},
	{Name: "updateserver.prepare_enc_us", Unit: "us", Better: "lower"},
	{Name: "updateserver.filestore_publish_ms", Unit: "ms", Better: "lower"},
	{Name: "updateserver.patchstore_get_us", Unit: "us", Better: "lower"},
	{Name: "updateserver.patchstore_put_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.transfer_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.dispatch_ns", Unit: "ns", Better: "lower"},
}
