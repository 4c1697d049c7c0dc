package nn

// forward computes y = W·x + b into y (len d.out) from the transposed
// weights: y starts as the bias, and each input i adds wt[i*out+o]·x[i]
// to every output o, in ascending i with a separate multiply and add.
// That is the operation order of the plain row-major dot product
// b[o] + Σ_i w[o][i]·x[i], so every kernel below is bit-identical to it;
// the vector kernels only compute many outputs at once.
func (d *dense) forward(x, y []float64) {
	copy(y, d.b)
	if d.in == 0 {
		return
	}
	o := 0
	if useAVX512 {
		for ; o+128 <= d.out; o += 128 {
			cols128MulAdd512(&d.wt[o], d.out, &x[0], d.in, &y[o])
		}
	}
	if useAVX2 {
		for ; o+32 <= d.out; o += 32 {
			cols32MulAdd(&d.wt[o], d.out, &x[0], d.in, &y[o])
		}
	}
	if useAVX512 {
		// Groups of up to 8 outputs under a lane mask, tail included.
		for ; o < d.out; o += 8 {
			k := min(8, d.out-o)
			cols8MulAdd512(&d.wt[o], d.out, &x[0], d.in, &y[o], 1<<k-1)
		}
	}
	if useAVX2 {
		for ; o+4 <= d.out; o += 4 {
			cols4MulAdd(&d.wt[o], d.out, &x[0], d.in, &y[o])
		}
	}
	colsMulAddGeneric(d.wt, x, y, o)
}

// colsMulAddGeneric is the portable kernel: y[o] += Σ_i wt[i*len(y)+o]·x[i]
// for the outputs o ≥ o0, four outputs per pass. The explicit float64
// conversion of each product forbids fusing it into the add, so the
// result has the same two roundings per step as the vector kernels on
// every architecture.
func colsMulAddGeneric(wt, x, y []float64, o0 int) {
	out := len(y)
	o := o0
	for ; o+4 <= out; o += 4 {
		s0, s1, s2, s3 := y[o], y[o+1], y[o+2], y[o+3]
		for i, xi := range x {
			r := wt[i*out+o : i*out+o+4]
			s0 += float64(r[0] * xi)
			s1 += float64(r[1] * xi)
			s2 += float64(r[2] * xi)
			s3 += float64(r[3] * xi)
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		s := y[o]
		for i, xi := range x {
			s += float64(wt[i*out+o] * xi)
		}
		y[o] = s
	}
}
