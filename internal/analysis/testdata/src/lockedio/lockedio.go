// Fixture for the lockedio analyzer: syscall-backed I/O inside mutex
// critical sections and *Locked-convention functions.
package lockedio

import (
	"os"
	"sync"
)

// Store mirrors the repo's cas.Store surface; the analyzer matches
// blob-store methods by this type name.
type Store interface {
	Delete(key string) error
	PutBehind(key string, blob []byte) error
}

type index struct {
	mu sync.Mutex
	m  map[string]int
	rw sync.RWMutex
}

func (x *index) removeUnderLock(path string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	os.Remove(path) // want "lockedio: os.Remove while a mutex is held"
}

func (x *index) removeOutside(path string) {
	os.Remove(path) // negative: before the lock
	x.mu.Lock()
	x.m[path] = 1
	x.mu.Unlock()
	os.Remove(path) // negative: after the unlock
}

func (x *index) evictLocked(path string) {
	delete(x.m, path)
	os.Remove(path) // want "lockedio: os.Remove inside evictLocked"
}

func (x *index) reap(s Store, key string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	s.Delete(key) // want "lockedio: .Store..Delete while a mutex is held"
}

func (x *index) queueUnderLock(s Store, key string, blob []byte) {
	x.mu.Lock()
	defer x.mu.Unlock()
	s.PutBehind(key, blob) // want "lockedio: .Store..PutBehind while a mutex is held"
}

func (x *index) readSide(path string) {
	x.rw.RLock()
	defer x.rw.RUnlock()
	os.Stat(path) // want "lockedio: os.Stat while a mutex is held"
}

func (x *index) async(path string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	go func() {
		os.Remove(path) // negative: the goroutine runs outside the window
	}()
}

func (x *index) deliberate(path string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	//nbtivet:ignore lockedio the unlink must be atomic with the index update in this fixture
	os.Remove(path)
	delete(x.m, path)
}
