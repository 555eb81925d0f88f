package mpi

import "math/rand"

// Helpers of the in-package property tests, exported to the external
// mpi_test package: its fault tests import chaos, which imports mpi.

// PayloadFor is the deterministic payload of message i with n bytes.
var PayloadFor = payloadFor

// GenTrafficSizes draws the message sizes of genTraffic's random pattern.
func GenTrafficSizes(r *rand.Rand, msgs int) []int { return genTraffic(r, msgs).sizes }
