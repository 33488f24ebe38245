package imagelib

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ReadPGM parses a binary (P5) PGM with a maxval of 255.
func ReadPGM(r io.Reader) (*Raster, error) {
	br := bufio.NewReader(r)
	var magic string
	if _, err := fmt.Fscan(br, &magic); err != nil {
		return nil, fmt.Errorf("imagelib: read PGM magic: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("imagelib: unsupported PGM magic %q", magic)
	}
	w, err := readPGMInt(br)
	if err != nil {
		return nil, err
	}
	h, err := readPGMInt(br)
	if err != nil {
		return nil, err
	}
	maxval, err := readPGMInt(br)
	if err != nil {
		return nil, err
	}
	if maxval != 255 {
		return nil, fmt.Errorf("imagelib: unsupported PGM maxval %d", maxval)
	}
	if w <= 0 || h <= 0 || w*h > 64<<20 {
		return nil, fmt.Errorf("imagelib: unreasonable PGM size %dx%d", w, h)
	}
	// Exactly one whitespace byte separates the header from the pixels.
	if _, err := br.ReadByte(); err != nil {
		return nil, fmt.Errorf("imagelib: read PGM separator: %w", err)
	}
	out := NewRaster(w, h)
	if _, err := io.ReadFull(br, out.Pix); err != nil {
		return nil, fmt.Errorf("imagelib: read PGM pixels: %w", err)
	}
	return out, nil
}

// readPGMInt scans the next decimal token, skipping whitespace and
// #-comments (the PGM header grammar).
func readPGMInt(br *bufio.Reader) (int, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("imagelib: read PGM header: %w", err)
		}
		switch {
		case b == '#':
			if _, err := br.ReadString('\n'); err != nil {
				return 0, fmt.Errorf("imagelib: read PGM comment: %w", err)
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			continue
		case b >= '0' && b <= '9':
			v := int(b - '0')
			for {
				b, err := br.ReadByte()
				if err == io.EOF {
					return v, nil
				}
				if err != nil {
					return 0, fmt.Errorf("imagelib: read PGM header: %w", err)
				}
				if b < '0' || b > '9' {
					if err := br.UnreadByte(); err != nil {
						return 0, err
					}
					return v, nil
				}
				v = v*10 + int(b-'0')
				if v > 1<<30 {
					return 0, fmt.Errorf("imagelib: PGM header value overflow")
				}
			}
		default:
			return 0, fmt.Errorf("imagelib: unexpected byte %q in PGM header", b)
		}
	}
}

// LoadPGM reads a raster from a file.
func LoadPGM(path string) (*Raster, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("imagelib: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadPGM(f)
}

func TestPGMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	r := randomRaster(rng, 37, 21)
	var buf bytes.Buffer
	if err := WritePGM(&buf, r); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.W != r.W || got.H != r.H {
		t.Fatalf("size %dx%d, want %dx%d", got.W, got.H, r.W, r.H)
	}
	for i := range r.Pix {
		if got.Pix[i] != r.Pix[i] {
			t.Fatalf("pixel %d corrupted", i)
		}
	}
}

func TestPGMFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := randomRaster(rng, 16, 16)
	path := filepath.Join(t.TempDir(), "img.pgm")
	if err := SavePGM(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPGM(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 16 || got.Pix[5] != r.Pix[5] {
		t.Fatal("file round trip corrupted")
	}
}

func TestPGMReadsComments(t *testing.T) {
	data := "P5\n# a comment line\n2 2\n# another\n255\n\x01\x02\x03\x04"
	got, err := ReadPGM(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 2 || got.H != 2 || got.Pix[3] != 4 {
		t.Fatalf("parsed wrong: %+v", got)
	}
}

func TestPGMRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"P6\n2 2\n255\n....",      // wrong magic
		"P5\n2 2\n65535\n....",    // unsupported maxval
		"P5\n0 2\n255\n",          // zero width
		"P5\n2 2\n255\n\x01",      // truncated pixels
		"P5\nxx 2\n255\n\x01\x02", // non-numeric header
	}
	for _, data := range cases {
		if _, err := ReadPGM(strings.NewReader(data)); err == nil {
			t.Fatalf("garbage %q accepted", data)
		}
	}
}

func TestPGMLoadMissingFile(t *testing.T) {
	if _, err := LoadPGM(filepath.Join(t.TempDir(), "absent.pgm")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestPGMSceneExport(t *testing.T) {
	r := testScene(300)
	var buf bytes.Buffer
	if err := WritePGM(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if SSIM(r, got) != 1 {
		t.Fatal("PGM round trip must be lossless")
	}
}
