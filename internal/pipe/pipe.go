// Package pipe is the two-round producer/consumer ring behind the
// streaming pipelines: trace replay decodes round N+1 while round N
// issues, fused scheduling demultiplexes round N+1 while round N is
// scheduled. The callers keep their round types, fill and drain rules.
package pipe

// Run double-buffers rounds a and b between a producer goroutine, which
// fills free rounds with fill, and the caller, which drains full rounds
// with drain in fill order. Only the producer calls fill, so the input
// it reads needs no locking; the channel handoffs order each fill before
// the drain of that round.
//
// fill reports last=true on the final round (end of input, or an error
// the round carries for drain to report); that round is still drained.
// Run returns the first drain error, which stops the producer, or nil
// once the last round is drained. Either way it returns only after the
// producer has exited, so the caller may recycle a and b at once.
func Run[R any](a, b *R, fill func(*R) (last bool), drain func(*R) error) error {
	// Both channels hold both rounds, so neither send ever blocks.
	free := make(chan *R, 2)
	full := make(chan *R, 2)
	quit := make(chan struct{})
	done := make(chan struct{})
	free <- a
	free <- b

	go func() {
		defer close(done)
		defer close(full)
		for {
			var r *R
			select {
			case r = <-free:
			case <-quit:
				return
			}
			last := fill(r)
			full <- r
			if last {
				return
			}
		}
	}()
	defer func() {
		close(quit)
		<-done
	}()

	for r := range full {
		if err := drain(r); err != nil {
			return err
		}
		free <- r
	}
	return nil
}
