package fleet

import (
	"fmt"
	"testing"
)

func ringMembers(n int) []*member {
	out := make([]*member, n)
	for i := range out {
		out[i] = &member{url: fmt.Sprintf("http://member-%d:8080", i)}
	}
	return out
}

// TestRoundRobinOrder checks the rotation covers members evenly and the
// failover order walks the rest of the fleet.
func TestRoundRobinOrder(t *testing.T) {
	members := ringMembers(3)
	rr := &Supervisor{members: members}
	firsts := make(map[string]int)
	for i := 0; i < 9; i++ {
		order := rr.order()
		if len(order) != 3 {
			t.Fatalf("order has %d members, want 3", len(order))
		}
		firsts[order[0].url]++
	}
	for _, m := range members {
		if firsts[m.url] != 3 {
			t.Fatalf("member %s preferred %d times in 9 picks, want 3", m.url, firsts[m.url])
		}
	}
}
