//go:build !amd64 || purego

package simd

// forceGoBackend is the fallback build's twin of the amd64 test helper:
// the Go backend is the only one here, so there is nothing to switch.
func forceGoBackend() (restore func()) { return func() {} }
