package energy

// Category labels an energy expense for the per-component breakdowns
// (Fig. 8 splits total energy into extraction, feature upload and image
// upload).
type Category int

// Energy categories.
const (
	CatExtract Category = iota + 1
	CatFeatureTx
	CatImageTx
	CatCompress
	CatRx
	CatScreen
	numCategories = 6
)

// Meter accumulates energy by category. The zero value is ready to use.
type Meter struct {
	byCat [numCategories + 1]float64
	total float64
}

// Add records j Joules against a category and returns j for chaining
// into Battery.Drain. Negative amounts are ignored.
func (m *Meter) Add(cat Category, j float64) float64 {
	if j <= 0 {
		return 0
	}
	if cat >= 1 && cat <= numCategories {
		m.byCat[cat] += j
	}
	m.total += j
	return j
}

// Total returns all recorded energy.
func (m *Meter) Total() float64 { return m.total }

// Get returns the energy recorded against a category.
func (m *Meter) Get(cat Category) float64 {
	if cat < 1 || cat > numCategories {
		return 0
	}
	return m.byCat[cat]
}
