package core_test

import (
	"fmt"

	"github.com/logp-model/logp/internal/core"
)

// The four parameters define the machine; everything else is derived.
func ExampleParams() {
	p := core.Params{P: 8, L: 6, O: 2, G: 4}
	fmt.Println(p)
	fmt.Println("point-to-point:", p.PointToPoint())
	fmt.Println("remote read:   ", p.RemoteRead())
	fmt.Println("capacity:      ", p.Capacity())
	// Output:
	// LogP(P=8, L=6, o=2, g=4)
	// point-to-point: 10
	// remote read:    20
	// capacity:       2
}

// The Figure 3 broadcast: the tree shape falls out of L, o and g.
func ExampleOptimalBroadcast() {
	s, err := core.OptimalBroadcast(core.Params{P: 8, L: 6, O: 2, G: 4}, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("finish:", s.Finish)
	fmt.Println("receive times:", s.RecvTimes())
	fmt.Println("root fan-out:", len(s.Sends[0]))
	// Output:
	// finish: 24
	// receive times: [10 14 18 20 22 24 24]
	// root fan-out: 4
}

// The Figure 4 summation: how many values fit in 28 cycles, and the tree.
func ExampleOptimalSummation() {
	s, err := core.OptimalSummation(core.Params{P: 8, L: 5, O: 2, G: 4}, 28)
	if err != nil {
		panic(err)
	}
	fmt.Println("values:", s.TotalValues)
	fmt.Println("children deadlines:", s.ChildDeadlines())
	fmt.Println("root local inputs:", s.Root.LocalInputs)
	// Output:
	// values: 79
	// children deadlines: [18 14 10 6]
	// root local inputs: 17
}

// MinSumTime inverts SumCapacity: the first deadline whose capacity reaches n.
func ExampleMinSumTime() {
	p := core.Params{P: 8, L: 5, O: 2, G: 4}
	fmt.Println(core.MinSumTime(p, 79))
	fmt.Println(core.BinaryTreeSumTime(p, 79))
	// Output:
	// 28
	// 39
}
