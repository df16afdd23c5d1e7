package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// openLoop answers every call of a schedule over its connections, and
// a call still unanswered when the drain limit passes fails rather
// than being waited for.
func TestOpenLoopDrains(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("slow") != "" {
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}
		w.Write([]byte(`{"digest":"d","cached":false,"tier":""}`))
	}))
	defer srv.Close()
	defer close(release)
	client := newClient(2)
	sched := []call{{due: 0, item: 0}, {due: time.Millisecond, item: 1}, {due: 2 * time.Millisecond, item: 2}, {due: 3 * time.Millisecond, item: 3}}
	build := func(ctx context.Context, c call) (*http.Request, error) {
		url := srv.URL
		if c.item == 3 {
			url += "?slow=1"
		}
		return post(ctx, url, "application/json", nil)
	}
	res := openLoop(client, build, sched, 2, 200*time.Millisecond)
	for i := 0; i < 3; i++ {
		if res[i].err != nil || res[i].status != http.StatusOK || res[i].reply.Digest != "d" {
			t.Errorf("call %d: status %d, err %v, reply %+v", i, res[i].status, res[i].err, res[i].reply)
		}
		if res[i].done < sched[i].due || res[i].dispatched < sched[i].due {
			t.Errorf("call %d answered before it was due", i)
		}
	}
	if res[3].err == nil {
		t.Errorf("the call unanswered at drain succeeded")
	}
}
