package img

import (
	"bufio"
	"fmt"
	"io"
)

// PGM (portable graymap) codec — the simplest interchange format for
// inspecting rendered frames and face crops with standard image tools.
// Binary P5 variant, maxval 255.

// WritePGM encodes g as binary PGM.
func (g *Gray) WritePGM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return fmt.Errorf("img: writing pgm header: %w", err)
	}
	if _, err := bw.Write(g.Pix); err != nil {
		return fmt.Errorf("img: writing pgm pixels: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("img: flushing pgm: %w", err)
	}
	return nil
}
