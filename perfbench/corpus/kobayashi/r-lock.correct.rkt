(module r-lock
  (provide [main (-> integer? integer?)])
  (define lock (box 0))
  (define (acquire) (begin (assert (zero? (unbox lock))) (set-box! lock 1)))
  (define (release) (begin (assert (= (unbox lock) 1)) (set-box! lock 0)))
  (define (main n) (begin (acquire) (release) 0)))
