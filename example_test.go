package tiger_test

import (
	"fmt"
	"time"

	"tiger"
)

// Example builds the paper's reference system, plays one stream, and
// verifies delivery. The simulator is deterministic, so this example's
// output is exact.
func Example() {
	o := tiger.DefaultOptions()
	o.ClientDropProb = 0
	c, err := tiger.New(o)
	if err != nil {
		panic(err)
	}
	fmt.Printf("capacity: %d streams\n", c.Capacity())

	s, err := c.Play(0, 0)
	if err != nil {
		panic(err)
	}
	c.RunFor(30 * time.Second)
	st := s.Viewer.Stats()
	fmt.Printf("delivered %d blocks, lost %d\n", st.BlocksOK, st.BlocksLost)
	// Output:
	// capacity: 602 streams
	// delivered 28 blocks, lost 0
}

// ExampleCluster_FailCub shows mirror takeover: a cub dies and the
// stream keeps flowing from declustered secondaries.
func ExampleCluster_FailCub() {
	o := tiger.DefaultOptions()
	o.ClientDropProb = 0
	c, err := tiger.New(o)
	if err != nil {
		panic(err)
	}
	s, err := c.Play(0, 0)
	if err != nil {
		panic(err)
	}
	c.RunFor(10 * time.Second)
	c.FailCub(5)
	c.RunFor(60 * time.Second)

	st := s.Viewer.Stats()
	fmt.Printf("mirror-assembled blocks: %v\n", st.MirrorBlocks > 0)
	fmt.Printf("stream still alive: %v\n", st.BlocksOK > 60)
	// Output:
	// mirror-assembled blocks: true
	// stream still alive: true
}
