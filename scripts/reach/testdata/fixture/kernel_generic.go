//go:build purego

package main

import "fixture/lib"

func kernel() int { return lib.OnlyPurego() + lib.Opts{OnlyPurego: 1}.OnlyPurego }
