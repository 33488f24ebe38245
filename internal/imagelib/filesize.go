package imagelib

// The paper's datasets are resized so every image file is about 700 KB
// (the average size of a normal-quality smartphone photo) at a nominal
// 8-megapixel resolution (2448×3264). Rasters in this repo are rendered at
// a small canonical size for speed, so file sizes are anchored per image:
// the full-resolution, uncompressed-quality encoding of an image is
// defined to be NominalBytes, and every compressed variant is scaled by
// the ratio the real codec measures.

// Nominal full-size photo parameters used for bandwidth and energy
// accounting.
const (
	NominalW     = 2448
	NominalH     = 3264
	NominalBytes = 700 * 1024
)

// NominalPixels is the pixel count of the nominal full-size photo.
const NominalPixels = NominalW * NominalH

// SizeModel converts measured codec sizes on the small canonical raster
// into nominal full-size file bytes.
type SizeModel struct {
	// refBytes is the codec size of the reference raster at quality
	// proportion 0; it anchors the scale so that an uncompressed upload
	// costs exactly NominalBytes.
	refBytes int
	refPix   int
}

// NewSizeModel anchors a size model on the reference (full-quality,
// full-resolution) raster of an image.
func NewSizeModel(ref *Raster) SizeModel {
	return SizeModel{refBytes: EncodedSize(ref, 0), refPix: ref.Pixels()}
}

// Bytes returns the nominal upload size of raster r encoded at quality
// proportion p. r may be a resolution-compressed version of the reference
// raster; the pixel ratio carries the resolution reduction into the size.
func (m SizeModel) Bytes(r *Raster, p float64) int {
	if m.refBytes <= 0 {
		return NominalBytes
	}
	measured := EncodedSize(r, p)
	// Scale measured bytes on the small raster to the nominal photo.
	// measured/refBytes captures both quality compression and the block
	// count change from resolution compression.
	return int(float64(NominalBytes) * float64(measured) / float64(m.refBytes))
}

// PixelsAt returns the nominal pixel count after a resolution compression
// proportion cr (fractional decrement of width and height).
func PixelsAt(cr float64) int {
	if cr <= 0 {
		return NominalPixels
	}
	if cr >= 0.99 {
		cr = 0.99
	}
	s := 1 - cr
	return int(float64(NominalPixels) * s * s)
}
