//go:build !purego

package main

func kernel() int { return 0 }
