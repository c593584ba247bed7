//go:build !go1.23

package sim

var _ = internal_sim_requires_Go_1_23_or_later
