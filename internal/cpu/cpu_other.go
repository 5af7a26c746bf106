//go:build !amd64

package cpu

// AVX and AVX2FMA are false off amd64.
const AVX, AVX2FMA = false, false
