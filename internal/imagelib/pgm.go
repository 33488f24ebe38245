package imagelib

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// PGM (Portable GrayMap, binary P5) output: the simplest standard raster
// format, letting the synthetic datasets be exported for visual
// inspection (cmd/imagegen). The reader that checks the writer lives in
// pgm_test.go.

// WritePGM writes r as a binary (P5) PGM.
func WritePGM(w io.Writer, r *Raster) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", r.W, r.H); err != nil {
		return fmt.Errorf("imagelib: write PGM header: %w", err)
	}
	if _, err := bw.Write(r.Pix); err != nil {
		return fmt.Errorf("imagelib: write PGM pixels: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("imagelib: flush PGM: %w", err)
	}
	return nil
}

// SavePGM writes r to a file.
func SavePGM(path string, r *Raster) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imagelib: create %s: %w", path, err)
	}
	if err := WritePGM(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
