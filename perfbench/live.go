package main

import (
	"sync"
	"time"
)

// rowState is what the benchmark knows about one stored row.
type rowState struct {
	vec        []float32
	cat, price int64
	live       bool
	// touched is when the last write to the row returned; inflight is set
	// while a write to it is outstanding. A reader that overlaps either
	// cannot know which version its snapshot saw, so it skips the row's
	// strict checks.
	touched  time.Time
	inflight bool
}

// Live tracks the rows the store should hold. The writer updates it around
// each write; readers consult it to check answers.
type Live struct {
	mu   sync.RWMutex
	rows map[string]*rowState
	ids  []string // live ids, writer-owned order for random picks
	pos  map[string]int
}

func newLive(c *Corpus) *Live {
	l := &Live{rows: make(map[string]*rowState, c.Shape.N), pos: make(map[string]int, c.Shape.N)}
	for i := 0; i < c.Shape.N; i++ {
		id := rowID(i)
		l.rows[id] = &rowState{vec: c.Vecs.Row(i), cat: c.Cat[i], price: c.Price[i], live: true}
		l.pos[id] = len(l.ids)
		l.ids = append(l.ids, id)
	}
	return l
}

// begin marks a write to id as outstanding.
func (l *Live) begin(id string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.rows[id]; ok {
		st.inflight = true
	} else {
		l.rows[id] = &rowState{inflight: true}
	}
}

// end records the row's state once the write to it returned; ok false
// (the write failed) leaves the old state in place but still marks the row
// as touched.
func (l *Live) end(id string, ok, live bool, v []float32, cat, price int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.rows[id]
	st.inflight, st.touched = false, time.Now()
	if !ok {
		return
	}
	st.vec, st.cat, st.price = v, cat, price
	if live && !st.live {
		l.pos[id] = len(l.ids)
		l.ids = append(l.ids, id)
	} else if !live && st.live {
		i := l.pos[id]
		last := l.ids[len(l.ids)-1]
		l.ids[i], l.pos[last] = last, i
		l.ids = l.ids[:len(l.ids)-1]
		delete(l.pos, id)
	}
	st.live = live
}

// stable returns the row's state when no write to it overlapped [since,
// now]; ok is false when the row is unknown or was written meanwhile.
func (l *Live) stable(id string, since time.Time) (st rowState, known, ok bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	p, known := l.rows[id]
	if !known {
		return rowState{}, false, false
	}
	if p.inflight || !p.touched.Before(since) {
		return rowState{}, true, false
	}
	return *p, true, true
}

// pick returns the live id at position n modulo the live count.
func (l *Live) pick(n int) string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ids[n%len(l.ids)]
}

// snapshot returns the live rows as reference rows plus their attributes.
func (l *Live) snapshot(rs *Rows) (cat, price []int64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rs.Vecs, rs.IDs = rs.Vecs[:0], rs.IDs[:0]
	for _, id := range l.ids {
		st := l.rows[id]
		rs.Vecs = append(rs.Vecs, st.vec)
		rs.IDs = append(rs.IDs, id)
		cat = append(cat, st.cat)
		price = append(price, st.price)
	}
	return cat, price
}
