// Reservation: a vacation-style booking service (the workload family of
// STAMP's vacation) written directly against the public API. Client
// goroutines reserve and cancel seats across flights held in
// transactional maps while an auditor transaction continuously checks
// the books balance — demonstrating transactional maps, multi-structure
// atomicity, and user-level aborts (error returns).
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"

	"gstm"
)

const (
	flights  = 24
	seats    = 30 // per flight
	clients  = 6
	requests = 400 // per client
)

// errSoldOut is a user-level abort: the transaction rolls back and is
// not retried.
var errSoldOut = errors.New("sold out")

func main() {
	s := gstm.New(gstm.Options{})

	// free[f] = remaining seats on flight f.
	free := gstm.NewArray(flights, seats)
	// bookings maps bookingID → flight+1 (0 is the map's "absent").
	bookings := gstm.NewMap(clients * requests)
	// sold counts total successful bookings.
	sold := gstm.NewVar(0)

	var wg sync.WaitGroup
	var soldOut, cancelled int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := uint64(client)*0x9e3779b97f4a7c15 + 7
			myBookings := []int64{}
			for r := 0; r < requests; r++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				flight := int(rng % flights)
				bookingID := int64(client*requests + r)

				if rng%5 == 0 && len(myBookings) > 0 {
					// Cancel an old booking (transaction 1).
					victim := myBookings[int(rng>>8)%len(myBookings)]
					err := s.Atomic(uint16(client), 1, func(tx *gstm.Tx) error {
						packed, ok := bookings.Get(tx, victim)
						if !ok {
							return nil
						}
						bookings.Delete(tx, victim)
						f := int(packed - 1)
						free.Set(tx, f, free.Get(tx, f)+1)
						tx.Write(sold, tx.Read(sold)-1)
						return nil
					})
					if err != nil {
						log.Fatalf("cancel: %v", err)
					}
					mu.Lock()
					cancelled++
					mu.Unlock()
					continue
				}

				// Book a seat (transaction 0); errSoldOut aborts without
				// retry.
				err := s.Atomic(uint16(client), 0, func(tx *gstm.Tx) error {
					remaining := free.Get(tx, flight)
					if remaining == 0 {
						return errSoldOut
					}
					free.Set(tx, flight, remaining-1)
					bookings.Put(tx, bookingID, int64(flight)+1)
					tx.Write(sold, tx.Read(sold)+1)
					return nil
				})
				switch {
				case errors.Is(err, errSoldOut):
					mu.Lock()
					soldOut++
					mu.Unlock()
				case err != nil:
					log.Fatalf("book: %v", err)
				default:
					myBookings = append(myBookings, bookingID)
				}
			}
		}(c)
	}

	// Auditor: read-only transactions that must always see a balanced
	// book (free + sold == total), concurrent with the clients. They
	// run under a transaction ID of their own (10), so a profiled
	// model tells the auditor's scans apart from the clients' bookings
	// (ID 0) and cancellations (ID 1), and the footprint report lists
	// this site alone, with an empty write set.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			var totalFree, totalSold int64
			err := s.Atomic(clients, 10, func(tx *gstm.Tx) error {
				totalFree = 0
				for f := 0; f < flights; f++ {
					totalFree += free.Get(tx, f)
				}
				totalSold = tx.Read(sold)
				return nil
			})
			if err != nil {
				log.Fatalf("audit: %v", err)
			}
			if totalFree+totalSold != flights*seats {
				log.Fatalf("audit failed mid-run: free %d + sold %d != %d",
					totalFree, totalSold, flights*seats)
			}
		}
	}()

	wg.Wait()
	<-done

	var totalFree int64
	for _, f := range free.Snapshot() {
		totalFree += f
	}
	fmt.Printf("flights: %d x %d seats; booked: %d, sold out: %d, cancelled: %d\n",
		flights, seats, sold.Value(), soldOut, cancelled)
	fmt.Printf("books balance: %d free + %d sold = %d (expected %d)\n",
		totalFree, sold.Value(), totalFree+sold.Value(), flights*seats)
	fmt.Printf("commits: %d, aborts: %d\n", s.Commits(), s.Aborts())
	if totalFree+sold.Value() != flights*seats {
		log.Fatal("books do not balance")
	}
}
