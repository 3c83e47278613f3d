//go:build !unix

package engine_test

import "time"

func processCPU() (time.Duration, bool) { return 0, false }
