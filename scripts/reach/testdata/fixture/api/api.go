// Package api stands for the public API: its exported functions, and the
// exported methods of the types it aliases, are roots.
package api

import "fixture/lib"

// Public is reached by callers outside the module.
func Public() int { return lib.ViaAPI() }

// T makes lib.T's exported methods public API.
type T = lib.T
