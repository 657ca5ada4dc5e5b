package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.T{}, kernel())
	flush(lib.T{})
}

// flush calls a method of an unnamed interface type, which declares
// nothing the probe could name.
func flush(v any) {
	if f, ok := v.(interface{ Flush() error }); ok {
		f.Flush()
	}
}
