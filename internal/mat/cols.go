package mat

// Column-compaction helpers: solver loops whose iterates carry structurally
// zero columns (the level-down block of a QBD touches only the phases a
// departure can land in) gather the nonzero columns into a narrow operand,
// run the O(n²·r) kernels at width r instead of n, and write the results
// back. Every helper moves values without arithmetic, and the kernels they
// feed are column-independent, so a compacted computation reproduces the
// full-width one bit for bit.

// NonzeroColsInto writes the ascending indices of the columns of m holding
// at least one nonzero entry into dst[:0] and returns it. dst must have
// capacity for m.Cols() indices; with it, the call does not allocate.
func (m *Matrix) NonzeroColsInto(dst []int) []int {
	mark := dst[:m.cols]
	for j := range mark {
		mark[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		for j, v := range m.a[i*m.cols : (i+1)*m.cols] {
			if v != 0 {
				mark[j] = 1
			}
		}
	}
	// Compact in place: the write index never passes the read index.
	out := dst[:0]
	for j, f := range mark {
		if f != 0 {
			out = append(out, j)
		}
	}
	return out
}

// ViewOf points the receiver at the first rows·cols elements of src's
// storage as a rows×cols row-major matrix and returns the receiver — a
// narrower reuse of a preallocated buffer without allocating. The view and
// src share memory, so writes through one show through the other. It
// panics if src holds fewer than rows·cols elements.
func (m *Matrix) ViewOf(src *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 || rows*cols > len(src.a) {
		panic(ErrShape)
	}
	m.rows, m.cols, m.a = rows, cols, src.a[:rows*cols]
	return m
}

// SetCols copies column c of src into column cols[c] of m and returns m.
// Columns of m outside cols are left untouched. src must be
// m.Rows()×len(cols), and m must not alias src.
func (m *Matrix) SetCols(src *Matrix, cols []int) *Matrix {
	if src.rows != m.rows || src.cols != len(cols) {
		panic(ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		drow := m.a[i*m.cols : (i+1)*m.cols]
		for c, v := range src.a[i*src.cols : (i+1)*src.cols] {
			drow[cols[c]] = v
		}
	}
	return m
}

// AddCols adds column c of src into column cols[c] of m and returns m.
// Columns of m outside cols are left untouched, which matches adding an
// exact zero. src must be m.Rows()×len(cols), and m must not alias src.
func (m *Matrix) AddCols(src *Matrix, cols []int) *Matrix {
	if src.rows != m.rows || src.cols != len(cols) {
		panic(ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		drow := m.a[i*m.cols : (i+1)*m.cols]
		for c, v := range src.a[i*src.cols : (i+1)*src.cols] {
			drow[cols[c]] += v
		}
	}
	return m
}
