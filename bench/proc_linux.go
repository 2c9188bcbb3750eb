package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent asks the kernel to kill the child if the benchmark itself is
// killed outright, so not even SIGKILL leaves a server holding a port.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
