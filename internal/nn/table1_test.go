package nn

import "testing"

// TestInceptionTableI asserts our Inception v3 builder reproduces the
// paper's Table I row for row: exact convolution counts, exact footprints.
// Two known inconsistencies in the paper's own table:
//   - Mixed_6a's "Filter Size" is printed as 0.255 MB, but the module's
//     own convolutions (whose count, 334720, we match exactly) total
//     1,152,000 bytes ≈ 1.099 MB.
//   - Mixed_6e is printed with the conv count of the c7=160 modules
//     (499392) and a filter size implying only nine convolutions; the true
//     Inception v3 Mixed_6e has ten convolutions at c7=192 (554880 convs,
//     2,138,112 filter bytes), which is what we build and assert.
func TestInceptionTableI(t *testing.T) {
	rows := TableI(InceptionV3())
	want := []TableIRow{
		{Name: "Conv2D_1a_3x3", H: 299, E: 149, RSMin: 9, RSMax: 9, CMin: 3, CMax: 3, MMin: 32, MMax: 32, Convs: 710432, FilterBytes: 864, InputBytes: 268203},
		{Name: "Conv2D_2a_3x3", H: 149, E: 147, RSMin: 9, RSMax: 9, CMin: 32, CMax: 32, MMin: 32, MMax: 32, Convs: 691488, FilterBytes: 9216, InputBytes: 710432},
		{Name: "Conv2D_2b_3x3", H: 147, E: 147, RSMin: 9, RSMax: 9, CMin: 32, CMax: 32, MMin: 64, MMax: 64, Convs: 1382976, FilterBytes: 18432, InputBytes: 691488},
		{Name: "MaxPool_3a_3x3", H: 147, E: 73, RSMin: 9, RSMax: 9, CMin: 0, CMax: 0, MMin: 64, MMax: 64, Convs: 0, FilterBytes: 0, InputBytes: 1382976},
		{Name: "Conv2D_3b_1x1", H: 73, E: 73, RSMin: 1, RSMax: 1, CMin: 64, CMax: 64, MMin: 80, MMax: 80, Convs: 426320, FilterBytes: 5120, InputBytes: 341056},
		{Name: "Conv2D_4a_3x3", H: 73, E: 71, RSMin: 9, RSMax: 9, CMin: 80, CMax: 80, MMin: 192, MMax: 192, Convs: 967872, FilterBytes: 138240, InputBytes: 426320},
		{Name: "MaxPool_5a_3x3", H: 71, E: 35, RSMin: 9, RSMax: 9, CMin: 0, CMax: 0, MMin: 192, MMax: 192, Convs: 0, FilterBytes: 0, InputBytes: 967872},
		{Name: "Mixed_5b", H: 35, E: 35, RSMin: 1, RSMax: 25, CMin: 48, CMax: 192, MMin: 32, MMax: 192, Convs: 568400, FilterBytes: 254976, InputBytes: 940800},
		{Name: "Mixed_5c", H: 35, E: 35, RSMin: 1, RSMax: 25, CMin: 48, CMax: 256, MMin: 48, MMax: 256, Convs: 607600, FilterBytes: 276480, InputBytes: 1254400},
		{Name: "Mixed_5d", H: 35, E: 35, RSMin: 1, RSMax: 25, CMin: 48, CMax: 288, MMin: 48, MMax: 288, Convs: 607600, FilterBytes: 284160, InputBytes: 1411200},
		{Name: "Mixed_6a", H: 35, E: 17, RSMin: 1, RSMax: 9, CMin: 64, CMax: 288, MMin: 64, MMax: 384, Convs: 334720, FilterBytes: 1152000, InputBytes: 1058400},
		{Name: "Mixed_6b", H: 17, E: 17, RSMin: 1, RSMax: 9, CMin: 128, CMax: 768, MMin: 128, MMax: 768, Convs: 443904, FilterBytes: 1294336, InputBytes: 887808},
		{Name: "Mixed_6c", H: 17, E: 17, RSMin: 1, RSMax: 9, CMin: 160, CMax: 768, MMin: 160, MMax: 768, Convs: 499392, FilterBytes: 1687552, InputBytes: 887808},
		{Name: "Mixed_6d", H: 17, E: 17, RSMin: 1, RSMax: 9, CMin: 160, CMax: 768, MMin: 160, MMax: 768, Convs: 499392, FilterBytes: 1687552, InputBytes: 887808},
		{Name: "Mixed_6e", H: 17, E: 17, RSMin: 1, RSMax: 9, CMin: 192, CMax: 768, MMin: 192, MMax: 768, Convs: 554880, FilterBytes: 2138112, InputBytes: 887808},
		{Name: "Mixed_7a", H: 17, E: 8, RSMin: 1, RSMax: 9, CMin: 192, CMax: 768, MMin: 192, MMax: 768, Convs: 254720, FilterBytes: 1695744, InputBytes: 665856},
		{Name: "Mixed_7b", H: 8, E: 8, RSMin: 1, RSMax: 9, CMin: 384, CMax: 1280, MMin: 192, MMax: 1280, Convs: 208896, FilterBytes: 5038080, InputBytes: 327680},
		{Name: "Mixed_7c", H: 8, E: 8, RSMin: 1, RSMax: 9, CMin: 384, CMax: 2048, MMin: 192, MMax: 2048, Convs: 208896, FilterBytes: 6070272, InputBytes: 524288},
		{Name: "AvgPool", H: 8, E: 1, RSMin: 64, RSMax: 64, CMin: 0, CMax: 0, MMin: 2048, MMax: 2048, Convs: 0, FilterBytes: 0, InputBytes: 131072},
		{Name: "FullyConnected", H: 1, E: 1, RSMin: 1, RSMax: 1, CMin: 2048, CMax: 2048, MMin: 1001, MMax: 1001, Convs: 1001, FilterBytes: 2050048, InputBytes: 2048},
	}
	if len(rows) != len(want) {
		t.Fatalf("TableI has %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, rows[i], w)
		}
	}
}

// TestTableIMegabytesMatchPaper cross-checks the printed MB values against
// the paper's table at its 3-decimal precision (Mixed_6a excepted, as
// documented above).
func TestTableIMegabytesMatchPaper(t *testing.T) {
	rows := TableI(InceptionV3())
	paperFilterMB := map[string]float64{
		"Conv2D_1a_3x3": 0.001, "Conv2D_2a_3x3": 0.009, "Conv2D_2b_3x3": 0.018,
		"Conv2D_3b_1x1": 0.005, "Conv2D_4a_3x3": 0.132,
		"Mixed_5b": 0.243, "Mixed_5c": 0.264, "Mixed_5d": 0.271,
		"Mixed_6b": 1.234, "Mixed_6c": 1.609, "Mixed_6d": 1.609,
		"Mixed_7a": 1.617, "Mixed_7b": 4.805, "Mixed_7c": 5.789,
		"FullyConnected": 1.955,
	}
	paperInputMB := map[string]float64{
		"Conv2D_1a_3x3": 0.256, "Conv2D_2a_3x3": 0.678, "Conv2D_2b_3x3": 0.659,
		"MaxPool_3a_3x3": 1.319, "Conv2D_3b_1x1": 0.325, "Conv2D_4a_3x3": 0.407,
		"MaxPool_5a_3x3": 0.923,
		"Mixed_5b":       0.897, "Mixed_5c": 1.196, "Mixed_5d": 1.346,
		"Mixed_6a": 1.009, "Mixed_6b": 0.847, "Mixed_6c": 0.847, "Mixed_6d": 0.847,
		"Mixed_6e": 0.847, "Mixed_7a": 0.635, "Mixed_7b": 0.313, "Mixed_7c": 0.500,
		"AvgPool": 0.125, "FullyConnected": 0.002,
	}
	const mb = 1 << 20
	for _, r := range rows {
		if want, ok := paperFilterMB[r.Name]; ok {
			got := float64(r.FilterBytes) / mb
			if diff := got - want; diff > 0.0006 || diff < -0.0006 {
				t.Errorf("%s: filter %.4f MB, paper %.3f MB", r.Name, got, want)
			}
		}
		if want, ok := paperInputMB[r.Name]; ok {
			got := float64(r.InputBytes) / mb
			if diff := got - want; diff > 0.0006 || diff < -0.0006 {
				t.Errorf("%s: input %.4f MB, paper %.3f MB", r.Name, got, want)
			}
		}
	}
}

func TestInceptionStructure(t *testing.T) {
	n := InceptionV3()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	out := n.OutputShape()
	if out.H != 1 || out.W != 1 || out.C != 1001 {
		t.Errorf("output shape %v, want 1x1x1001", out)
	}
	convs := n.Convs()
	// §II-A: 94 convolutional sub-layers, plus the lowered FC = 95 conv
	// leaves.
	if len(convs) != 95 {
		t.Errorf("conv leaves = %d, want 95 (94 + lowered FC)", len(convs))
	}
	// ≈0.5 million convolutions per layer on average across 20 layers
	// (the paper's table sums to 8.91M; ours to 8.97M with the corrected
	// Mixed_6e).
	var total int64
	for _, r := range TableI(n) {
		total += int64(r.Convs)
	}
	if total < 8_500_000 || total > 9_500_000 {
		t.Errorf("total convolutions = %d, want ≈8.97M", total)
	}
	// Total multiply-accumulates of one inference.
	if m := n.MACs(); m < 5.4e9 || m > 6.1e9 {
		t.Errorf("MACs = %d, want ≈5.7e9", m)
	}
}
