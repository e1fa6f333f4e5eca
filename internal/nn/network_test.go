package nn

import "testing"

// TestFlattenTopLevelOrder checks what a one-pass walk of a network
// relies on: Flatten emits every leaf of a top-level layer before any
// leaf of the next, into a slice sized once. The shape-free leaf walk
// behind FilterBytes, Validate and CheckWeights must visit the same
// leaves in the same order.
func TestFlattenTopLevelOrder(t *testing.T) {
	for _, build := range []func() *Network{
		InceptionV3, ResNet18, SmallCNN, SparseCNN, Int4CNN, WideCNN, BranchyCNN, SmallResNet, BNNet,
	} {
		net := build()
		placed := net.Flatten()
		if len(placed) != cap(placed) {
			t.Errorf("%s: Flatten returned %d leaves with capacity %d", net.Name, len(placed), cap(placed))
		}
		var walked []Layer
		for _, l := range net.Layers {
			eachLeaf(l, func(leaf Layer) { walked = append(walked, leaf) })
		}
		if len(walked) != len(placed) {
			t.Fatalf("%s: leaf walk visits %d leaves, Flatten %d", net.Name, len(walked), len(placed))
		}
		filterBytes := 0
		for i, p := range placed {
			if i > 0 && p.GroupIdx < placed[i-1].GroupIdx {
				t.Fatalf("%s: leaf %d (%s) of layer %d follows a leaf of layer %d",
					net.Name, i, p.Layer.Name(), p.GroupIdx, placed[i-1].GroupIdx)
			}
			if walked[i] != p.Layer {
				t.Fatalf("%s: leaf walk visits %s at %d, Flatten %s", net.Name, walked[i].Name(), i, p.Layer.Name())
			}
			if c := p.Conv(); c != nil {
				filterBytes += c.FilterBytes()
			}
		}
		if got := net.FilterBytes(); got != filterBytes {
			t.Errorf("%s: FilterBytes %d, flattened convolutions hold %d", net.Name, got, filterBytes)
		}
	}
}
