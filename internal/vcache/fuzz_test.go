package vcache

import (
	"testing"
	"time"
)

// model is the naive reference FuzzCache checks Cache against: a slice in
// recency order (most recent first) searched linearly.
type model struct {
	budget  int64
	entries []*modelEntry
}

type modelEntry struct {
	key, val   int
	version    int64
	cost       int64
	marked     bool // observed stale at least once
	staleSince time.Time
}

func (m *model) find(key int) int {
	for i, e := range m.entries {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (m *model) removeAt(i int) {
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
}

func (m *model) touch(i int) {
	e := m.entries[i]
	m.removeAt(i)
	m.entries = append([]*modelEntry{e}, m.entries...)
}

func (m *model) get(key int, version int64, maxStale time.Duration, now time.Time) (int, State) {
	i := m.find(key)
	if i < 0 {
		return 0, Miss
	}
	e := m.entries[i]
	if e.version == version {
		m.touch(i)
		return e.val, Fresh
	}
	if e.version > version {
		return 0, Miss
	}
	if maxStale > 0 {
		if !e.marked {
			e.marked, e.staleSince = true, now
		}
		if now.Sub(e.staleSince) <= maxStale {
			m.touch(i)
			return e.val, Stale
		}
	}
	m.removeAt(i)
	return 0, Miss
}

func (m *model) put(key int, version int64, val int, cost int64) int64 {
	if i := m.find(key); i >= 0 {
		if m.entries[i].version >= version {
			return 0
		}
		m.removeAt(i)
	}
	m.entries = append([]*modelEntry{{key: key, val: val, version: version, cost: cost}}, m.entries...)
	var evicted int64
	for len(m.entries) > 1 {
		var used int64
		for _, e := range m.entries {
			used += e.cost
		}
		if used <= m.budget {
			break
		}
		m.entries = m.entries[:len(m.entries)-1]
		evicted++
	}
	return evicted
}

// FuzzCache decodes the input into Put/Get/Drop operations and clock steps
// over four keys, four versions and small costs, and checks every result
// and Len against the model. The first byte picks the budget; each later
// pair of bytes is one operation and its argument.
func FuzzCache(f *testing.F) {
	f.Add([]byte{3, 0, 0x10, 0, 0x11, 0, 0x12, 1, 0x00, 0, 0x13})
	f.Add([]byte{5, 0, 0x15, 1, 0x39, 3, 0x02, 1, 0x39, 3, 0x03, 1, 0x29, 2, 0x01})
	f.Add([]byte{0, 0, 0x30, 0, 0x31, 1, 0x31, 1, 0x04, 0, 0x08, 1, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		budget := int64(data[0] % 8)
		c := New[int, int](budget)
		now := time.Unix(0, 0)
		c.SetClock(func() time.Time { return now })
		m := &model{budget: budget}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, data[i+1]
			key, version, small := int(arg&3), int64(arg>>2&3), arg>>4&3
			switch op {
			case 0:
				got, want := c.Put(key, version, i, int64(small)), m.put(key, version, i, int64(small))
				if got != want {
					t.Fatalf("op %d: Put(%d, %d, cost %d) evicted %d, want %d", i, key, version, small, got, want)
				}
			case 1:
				maxStale := time.Duration(small)
				gv, gs := c.Get(key, version, maxStale)
				wv, ws := m.get(key, version, maxStale, now)
				if gv != wv || gs != ws {
					t.Fatalf("op %d: Get(%d, %d, %v) = (%d, %d), want (%d, %d)", i, key, version, maxStale, gv, gs, wv, ws)
				}
			case 2:
				c.Drop(key)
				if j := m.find(key); j >= 0 {
					m.removeAt(j)
				}
			case 3:
				now = now.Add(time.Duration(arg % 4))
			}
			if c.Len() != len(m.entries) {
				t.Fatalf("op %d: Len = %d, want %d", i, c.Len(), len(m.entries))
			}
		}
	})
}
