//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death signal;
// the exit cleanups still stop every server on every path but SIGKILL.
func dieWithParent(*exec.Cmd) {}
