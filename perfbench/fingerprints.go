package main

// fingerprints pins each workload's deterministic output at defaultSeed:
// the SHA-256 of the dse.Normalize(Result) JSON for single-run workloads,
// of the sweep CSV for dse_sweep. A speed-only change leaves them all
// unchanged. After a documented model fix, a seed-1 run prints each new
// hash in its "# FAILED: fingerprint <new>, committed <old>" line.
var fingerprints = map[string]string{
	"c8_fill":      "8fe64670020ad03d604d0f232f63c4b42f05515d03e1a7e15fbf4ccd2d0c76e8",
	"randread":     "a77114dedb691ecca8e9a3e07b162cf864d08cef37c717e45d15842da9eb6945",
	"gc_randwrite": "a0520a30baf2d4cb07b0e777bd722cd097210a5c7578c889c58698787a6c2668",
	"dse_sweep":    "668f26f4a63676926bc50239ab6b3d480bc48a9c8517354bb4b77f02e7c59585",
}
