(module mem
  (provide [main (-> integer? (listof integer?) integer?)])
  (define (mem? x xs)
    (if (null? xs) #f (if (= x (car xs)) #t (mem? x (cdr xs)))))
  (define (main x xs) (car xs)))
