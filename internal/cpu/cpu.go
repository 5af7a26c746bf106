// Package cpu answers, once per process, which x86 vector extensions the
// hand-written kernels in linalg and nn may run: an extension counts only
// when CPUID reports it and the OS saves the YMM registers across context
// switches (CPUID's OSXSAVE bit and XCR0's XMM and YMM bits). Off amd64
// every answer is false, and those kernels run their portable Go.
package cpu
