C     400 chained logical IFs: a 400-deep tree from one card
      PROGRAM IFCHAN
      REAL A(10)
      IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF
     & (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (
     &X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X 
     &.GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .G
     &T. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT.
     & 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0
     &.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0
     &) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) 
     &IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) IF (X .GT. 0.0) X 
     &= 1.0
      END
