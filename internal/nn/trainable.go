package nn

// Trainable quarantines everything mutable about a model under training —
// parameters, gradient accumulators, optimizer state spun up by Train —
// behind one wrapper, so the rest of the system only ever handles
// the immutable Weights it freezes into. The lifecycle is:
//
//	t := nn.ThawTrainable(w0)   // reopen frozen weights to fine-tune
//	t.Train(trainSet, valSet, tc)
//	w := t.Freeze()             // immutable, goroutine-shareable
//
// A Trainable is single-goroutine, like the Network it wraps (the trainer
// itself shards each batch across worker goroutines).
type Trainable struct {
	net *Network
}

// ThawTrainable reopens frozen weights for training: parameters are
// deep-copied into a fresh Network with zeroed gradients, so the shared
// frozen copy keeps serving inference while this one learns.
func ThawTrainable(w *Weights) *Trainable { return &Trainable{net: w.Thaw()} }

// Train fits the wrapped network (see the Train free function).
func (t *Trainable) Train(train, val []Sample, cfg TrainConfig) (TrainResult, error) {
	return Train(t.net, train, val, cfg)
}

// Freeze compiles the current parameters into an immutable Weights
// program. The Trainable remains usable; freezing copies.
func (t *Trainable) Freeze() *Weights { return t.net.Freeze() }
