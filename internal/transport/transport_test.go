package transport

import (
	"testing"
	"time"
)

func collect(ch <-chan Message, n int, timeout time.Duration) []Message {
	var out []Message
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case m, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, m)
		case <-deadline:
			return out
		}
	}
	return out
}

func TestMemoryDelivery(t *testing.T) {
	tr := NewMemory(3, 1, Faults{})
	defer tr.Close()
	for i := 0; i < 5; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(tr.Recv(1), 5, time.Second)
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5", len(got))
	}
	for _, m := range got {
		if m.From != 0 || m.To != 1 {
			t.Errorf("misrouted message %+v", m)
		}
	}
}

func TestMemoryLoss(t *testing.T) {
	tr := NewMemory(2, 2, Faults{LossProb: 1})
	defer tr.Close()
	for i := 0; i < 10; i++ {
		_ = tr.Send(Message{From: 0, To: 1, Payload: nil})
	}
	if got := collect(tr.Recv(1), 1, 100*time.Millisecond); len(got) != 0 {
		t.Errorf("lossProb=1 delivered %d messages", len(got))
	}
}

func TestMemoryDuplication(t *testing.T) {
	tr := NewMemory(2, 3, Faults{DupProb: 1})
	defer tr.Close()
	for i := 0; i < 5; i++ {
		_ = tr.Send(Message{From: 0, To: 1, Payload: []byte{byte(i)}})
	}
	got := collect(tr.Recv(1), 10, time.Second)
	if len(got) != 10 {
		t.Errorf("dupProb=1 delivered %d, want 10", len(got))
	}
}

func TestMemoryReordering(t *testing.T) {
	tr := NewMemory(2, 4, Faults{MinDelay: 0, MaxDelay: 30 * time.Millisecond})
	defer tr.Close()
	const n = 40
	for i := 0; i < n; i++ {
		_ = tr.Send(Message{From: 0, To: 1, Payload: []byte{byte(i)}})
	}
	got := collect(tr.Recv(1), n, 2*time.Second)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i].Payload[0] < got[i-1].Payload[0] {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("wide delay window should have reordered something")
	}
}

func TestMemorySendAfterClose(t *testing.T) {
	tr := NewMemory(2, 5, Faults{})
	tr.Close()
	if err := tr.Send(Message{From: 0, To: 1}); err != ErrClosed {
		t.Errorf("Send after close: %v, want ErrClosed", err)
	}
	// Recv channels must be closed.
	if _, ok := <-tr.Recv(0); ok {
		t.Error("recv channel should be closed")
	}
	// Double close is fine.
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
}

func TestMemoryInvalidDestination(t *testing.T) {
	tr := NewMemory(2, 6, Faults{})
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 7}); err == nil {
		t.Error("sending to an unknown node must error")
	}
}

func TestMemoryDropAccounting(t *testing.T) {
	// A one-slot queue with nobody receiving: the first message parks in
	// the buffer, the rest must be dropped — and counted.
	tr := NewMemory(2, 7, Faults{QueueLen: 1})
	defer tr.Close()
	const sent = 20
	for i := 0; i < sent; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Deliveries are asynchronous; wait for the counters to settle.
	deadline := time.After(2 * time.Second)
	for {
		st := tr.Stats()[1]
		if st.Dropped >= sent-1 {
			if st.Sent != sent {
				t.Fatalf("sent counter %d, want %d", st.Sent, sent)
			}
			if st.Dropped != sent-1 {
				t.Fatalf("dropped counter %d, want %d", st.Dropped, sent-1)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("drop counter stuck at %d, want %d", st.Dropped, sent-1)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if st := tr.Stats()[0]; st.Sent != 0 || st.Dropped != 0 {
		t.Fatalf("node 0 saw no traffic but counts %+v", st)
	}
}

func TestMemoryDuplicationAccounting(t *testing.T) {
	tr := NewMemory(2, 3, Faults{DupProb: 1})
	defer tr.Close()
	if err := tr.Send(Message{From: 0, To: 1, Payload: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	got := collect(tr.Recv(1), 2, time.Second)
	if len(got) != 2 {
		t.Fatalf("delivered %d copies, want 2", len(got))
	}
	st := tr.Stats()[1]
	if st.Duplicated != 1 || st.Sent != 2 {
		t.Fatalf("stats %+v, want 1 duplication and 2 sends", st)
	}
}
