// Package ooc is a from-scratch Go reproduction of "Brief Announcement:
// Object Oriented Consensus" (Afek, Aspnes, Cohen, Vainstein, PODC 2017):
// the vacillate-adopt-commit / reconciliator framework for decomposing
// consensus algorithms, with full implementations of the three protocols
// the paper decomposes — Ben-Or's randomized consensus, the Phase-King
// Byzantine protocol, and Raft — over both an in-memory simulated network
// and a real TCP transport.
//
// See README.md to install and run it, DESIGN.md for what the system is
// layer by layer (§2 is the inventory), and EXPERIMENTS.md for the
// reproduced results. The root package holds the
// benchmark harness entry points (bench_test.go); the implementation
// lives under internal/.
package ooc
